//! Capability taxonomy: sensors, compute, actuators, and radios.
//!
//! §II of the paper stresses *extreme heterogeneity*: "the variety of things
//! available to an IoBT is immense, ranging from very capable devices and
//! simple disposable ones". The [`CapabilityProfile`] captures what a node
//! can sense, compute, actuate, and how it communicates; the synthesis engine
//! matches these against mission requirements.

use std::fmt;

/// Sensing modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorKind {
    /// Microphones, gunshot detection.
    Acoustic,
    /// Ground vibration; works when vision is obscured.
    Seismic,
    /// Cameras.
    Visual,
    /// Thermal imaging.
    Infrared,
    /// Radar returns.
    Radar,
    /// 3-D LiDAR point clouds.
    Lidar,
    /// RF spectrum monitoring (also used for side-channel discovery).
    RfSpectrum,
    /// Chemical/biological agent detection.
    Chemical,
    /// Soldier-wearable physiological monitoring.
    Physiological,
    /// Simple binary occupancy.
    Occupancy,
}

impl SensorKind {
    /// All modalities, in a stable order.
    pub const ALL: [SensorKind; 10] = [
        SensorKind::Acoustic,
        SensorKind::Seismic,
        SensorKind::Visual,
        SensorKind::Infrared,
        SensorKind::Radar,
        SensorKind::Lidar,
        SensorKind::RfSpectrum,
        SensorKind::Chemical,
        SensorKind::Physiological,
        SensorKind::Occupancy,
    ];

    /// Whether the modality keeps working when optical line-of-sight is lost
    /// (smoke, darkness, obscurants). Used by the modality-switching reflex
    /// (§IV-B: "seismic sensing may be used when smoke or other phenomena
    /// render visual tracking unreliable").
    pub const fn works_without_line_of_sight(self) -> bool {
        matches!(
            self,
            SensorKind::Acoustic
                | SensorKind::Seismic
                | SensorKind::Radar
                | SensorKind::RfSpectrum
                | SensorKind::Chemical
        )
    }
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SensorKind::Acoustic => "acoustic",
            SensorKind::Seismic => "seismic",
            SensorKind::Visual => "visual",
            SensorKind::Infrared => "infrared",
            SensorKind::Radar => "radar",
            SensorKind::Lidar => "lidar",
            SensorKind::RfSpectrum => "rf-spectrum",
            SensorKind::Chemical => "chemical",
            SensorKind::Physiological => "physiological",
            SensorKind::Occupancy => "occupancy",
        };
        f.write_str(s)
    }
}

/// A sensor instance mounted on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensor {
    kind: SensorKind,
    range_m: f64,
    quality: f64,
}

impl Sensor {
    /// Creates a sensor of the given modality.
    ///
    /// `range_m` is the nominal detection radius in meters; `quality` in
    /// `[0, 1]` is the probability of a correct observation at close range.
    /// Values are clamped into their valid domains.
    ///
    /// ```
    /// # use iobt_types::{Sensor, SensorKind};
    /// let s = Sensor::new(SensorKind::Visual, 200.0, 1.3);
    /// assert_eq!(s.quality(), 1.0); // clamped
    /// ```
    pub fn new(kind: SensorKind, range_m: f64, quality: f64) -> Self {
        Sensor {
            kind,
            range_m: range_m.max(0.0),
            quality: quality.clamp(0.0, 1.0),
        }
    }

    /// The sensing modality.
    pub const fn kind(&self) -> SensorKind {
        self.kind
    }

    /// Nominal detection radius in meters.
    pub const fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Probability of a correct observation at close range, in `[0, 1]`.
    pub const fn quality(&self) -> f64 {
        self.quality
    }
}

/// Compute tier of a node, from disposable motes to edge clouds (Fig. 2:
/// "from small on-board compute devices to powerful edge clouds with GPUs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComputeClass {
    /// Throwaway mote; can forward but barely process.
    Disposable,
    /// Microcontroller-class wearable or sensor node.
    Embedded,
    /// Vehicle- or squad-carried server.
    EdgeServer,
    /// GPU-equipped edge cloud.
    EdgeCloud,
}

impl ComputeClass {
    /// All classes from weakest to strongest.
    pub const ALL: [ComputeClass; 4] = [
        ComputeClass::Disposable,
        ComputeClass::Embedded,
        ComputeClass::EdgeServer,
        ComputeClass::EdgeCloud,
    ];

    /// Sustained throughput in MFLOP/s used by the resource allocator.
    pub const fn mflops(self) -> f64 {
        match self {
            ComputeClass::Disposable => 1.0,
            ComputeClass::Embedded => 50.0,
            ComputeClass::EdgeServer => 5_000.0,
            ComputeClass::EdgeCloud => 500_000.0,
        }
    }
}

impl fmt::Display for ComputeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComputeClass::Disposable => "disposable",
            ComputeClass::Embedded => "embedded",
            ComputeClass::EdgeServer => "edge-server",
            ComputeClass::EdgeCloud => "edge-cloud",
        };
        f.write_str(s)
    }
}

/// Actuation capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ActuatorKind {
    /// Ground or aerial locomotion (robots, drones).
    Locomotion,
    /// Gripping/manipulation.
    Manipulator,
    /// Route marking, beacons, smoke.
    Marker,
    /// Door/valve/barrier control.
    Barrier,
    /// Safety-interlocked demolition charge (§VI: "withhold from activation
    /// where humans are present").
    Demolition,
}

impl ActuatorKind {
    /// All actuator kinds, in a stable order.
    pub const ALL: [ActuatorKind; 5] = [
        ActuatorKind::Locomotion,
        ActuatorKind::Manipulator,
        ActuatorKind::Marker,
        ActuatorKind::Barrier,
        ActuatorKind::Demolition,
    ];

    /// Whether firing this actuator requires an explicit human decision
    /// (§VI keeps weapon-like effects under human authority).
    pub const fn requires_human_authorization(self) -> bool {
        matches!(self, ActuatorKind::Demolition)
    }
}

impl fmt::Display for ActuatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ActuatorKind::Locomotion => "locomotion",
            ActuatorKind::Manipulator => "manipulator",
            ActuatorKind::Marker => "marker",
            ActuatorKind::Barrier => "barrier",
            ActuatorKind::Demolition => "demolition",
        };
        f.write_str(s)
    }
}

/// Radio technology of a network interface (§III-A: "they have several
/// connectivity options (cellular, Wifi, Bluetooth)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RadioKind {
    /// Commercial cellular uplink.
    Cellular,
    /// 802.11-class local networking.
    Wifi,
    /// Short-range personal-area radio.
    Bluetooth,
    /// Long-range military UHF.
    TacticalUhf,
    /// Satellite backhaul.
    Satcom,
}

impl RadioKind {
    /// All radio kinds, in a stable order.
    pub const ALL: [RadioKind; 5] = [
        RadioKind::Cellular,
        RadioKind::Wifi,
        RadioKind::Bluetooth,
        RadioKind::TacticalUhf,
        RadioKind::Satcom,
    ];

    /// Nominal transmit range in meters under open terrain.
    pub const fn nominal_range_m(self) -> f64 {
        match self {
            RadioKind::Cellular => 2_000.0,
            RadioKind::Wifi => 120.0,
            RadioKind::Bluetooth => 25.0,
            RadioKind::TacticalUhf => 5_000.0,
            RadioKind::Satcom => f64::INFINITY,
        }
    }

    /// Nominal link bandwidth in kilobits per second.
    pub const fn bandwidth_kbps(self) -> f64 {
        match self {
            RadioKind::Cellular => 10_000.0,
            RadioKind::Wifi => 54_000.0,
            RadioKind::Bluetooth => 1_000.0,
            RadioKind::TacticalUhf => 256.0,
            RadioKind::Satcom => 512.0,
        }
    }

    /// Transmit power draw in watts, used by the energy model.
    pub const fn tx_power_w(self) -> f64 {
        match self {
            RadioKind::Cellular => 1.5,
            RadioKind::Wifi => 0.8,
            RadioKind::Bluetooth => 0.05,
            RadioKind::TacticalUhf => 5.0,
            RadioKind::Satcom => 12.0,
        }
    }
}

impl fmt::Display for RadioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioKind::Cellular => "cellular",
            RadioKind::Wifi => "wifi",
            RadioKind::Bluetooth => "bluetooth",
            RadioKind::TacticalUhf => "tactical-uhf",
            RadioKind::Satcom => "satcom",
        };
        f.write_str(s)
    }
}

/// A radio interface instance on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Radio {
    kind: RadioKind,
    range_m: f64,
    bandwidth_kbps: f64,
}

impl Radio {
    /// Creates a radio with the kind's nominal range and bandwidth.
    pub fn new(kind: RadioKind) -> Self {
        Radio {
            kind,
            range_m: kind.nominal_range_m(),
            bandwidth_kbps: kind.bandwidth_kbps(),
        }
    }

    /// Creates a radio with an explicit range (e.g. a detuned or
    /// high-gain variant). Negative values are clamped to zero.
    pub fn with_range(kind: RadioKind, range_m: f64) -> Self {
        Radio {
            range_m: range_m.max(0.0),
            ..Radio::new(kind)
        }
    }

    /// The radio technology.
    pub const fn kind(&self) -> RadioKind {
        self.kind
    }

    /// Effective transmit range in meters.
    pub const fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Link bandwidth in kilobits per second.
    pub const fn bandwidth_kbps(&self) -> f64 {
        self.bandwidth_kbps
    }
}

/// Everything a node can do: its sensors, compute tier, actuators, and
/// radios.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CapabilityProfile {
    sensors: Vec<Sensor>,
    compute: Option<ComputeClass>,
    actuators: Vec<ActuatorKind>,
    radios: Vec<Radio>,
}

impl CapabilityProfile {
    /// Creates an empty profile (no capabilities at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building a profile.
    ///
    /// ```
    /// # use iobt_types::{CapabilityProfile, ComputeClass, Radio, RadioKind, Sensor, SensorKind};
    /// let p = CapabilityProfile::builder()
    ///     .sensor(Sensor::new(SensorKind::Seismic, 80.0, 0.85))
    ///     .compute(ComputeClass::Embedded)
    ///     .radio(Radio::new(RadioKind::Wifi))
    ///     .build();
    /// assert!(p.can_sense(SensorKind::Seismic));
    /// assert_eq!(p.compute(), Some(ComputeClass::Embedded));
    /// ```
    pub fn builder() -> CapabilityProfileBuilder {
        CapabilityProfileBuilder::default()
    }

    /// Sensors mounted on the node.
    pub fn sensors(&self) -> &[Sensor] {
        &self.sensors
    }

    /// Compute tier, if the node can run analytics at all.
    pub const fn compute(&self) -> Option<ComputeClass> {
        self.compute
    }

    /// Actuators available on the node.
    pub fn actuators(&self) -> &[ActuatorKind] {
        &self.actuators
    }

    /// Radio interfaces on the node.
    pub fn radios(&self) -> &[Radio] {
        &self.radios
    }

    /// Returns `true` when the node has a sensor of modality `kind`.
    pub fn can_sense(&self, kind: SensorKind) -> bool {
        self.sensors.iter().any(|s| s.kind() == kind)
    }

    /// The best (longest-range) sensor of a given modality, if any.
    pub fn best_sensor(&self, kind: SensorKind) -> Option<&Sensor> {
        self.sensors
            .iter()
            .filter(|s| s.kind() == kind)
            .max_by(|a, b| a.range_m().total_cmp(&b.range_m()))
    }

    /// Returns `true` when the node carries actuator `kind`.
    pub fn can_actuate(&self, kind: ActuatorKind) -> bool {
        self.actuators.contains(&kind)
    }

    /// The longest radio range on the node, or `0.0` with no radios.
    pub fn max_radio_range_m(&self) -> f64 {
        self.radios
            .iter()
            .map(Radio::range_m)
            .fold(0.0, f64::max)
    }

    /// The highest bandwidth across interfaces, in kbps, or `0.0`.
    pub fn max_bandwidth_kbps(&self) -> f64 {
        self.radios
            .iter()
            .map(Radio::bandwidth_kbps)
            .fold(0.0, f64::max)
    }

    /// Returns `true` when the node has no way to communicate.
    pub fn is_isolated(&self) -> bool {
        self.radios.is_empty()
    }
}

/// Incremental builder for [`CapabilityProfile`]. See
/// [`CapabilityProfile::builder`].
#[derive(Debug, Clone, Default)]
pub struct CapabilityProfileBuilder {
    profile: CapabilityProfile,
}

impl CapabilityProfileBuilder {
    /// Adds a sensor.
    pub fn sensor(mut self, sensor: Sensor) -> Self {
        self.profile.sensors.push(sensor);
        self
    }

    /// Sets the compute tier.
    pub fn compute(mut self, class: ComputeClass) -> Self {
        self.profile.compute = Some(class);
        self
    }

    /// Adds an actuator.
    pub fn actuator(mut self, kind: ActuatorKind) -> Self {
        self.profile.actuators.push(kind);
        self
    }

    /// Adds a radio interface.
    pub fn radio(mut self, radio: Radio) -> Self {
        self.profile.radios.push(radio);
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> CapabilityProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CapabilityProfile {
        CapabilityProfile::builder()
            .sensor(Sensor::new(SensorKind::Visual, 200.0, 0.95))
            .sensor(Sensor::new(SensorKind::Visual, 350.0, 0.8))
            .sensor(Sensor::new(SensorKind::Seismic, 80.0, 0.85))
            .compute(ComputeClass::EdgeServer)
            .actuator(ActuatorKind::Locomotion)
            .radio(Radio::new(RadioKind::Wifi))
            .radio(Radio::new(RadioKind::TacticalUhf))
            .build()
    }

    #[test]
    fn sensor_clamps_inputs() {
        let s = Sensor::new(SensorKind::Acoustic, -5.0, 1.5);
        assert_eq!(s.range_m(), 0.0);
        assert_eq!(s.quality(), 1.0);
    }

    #[test]
    fn best_sensor_picks_longest_range() {
        let p = sample_profile();
        assert_eq!(p.best_sensor(SensorKind::Visual).unwrap().range_m(), 350.0);
        assert!(p.best_sensor(SensorKind::Radar).is_none());
    }

    #[test]
    fn radio_aggregates() {
        let p = sample_profile();
        assert_eq!(p.max_radio_range_m(), 5_000.0);
        assert_eq!(p.max_bandwidth_kbps(), 54_000.0);
        assert!(!p.is_isolated());
        assert!(CapabilityProfile::new().is_isolated());
    }

    #[test]
    fn compute_classes_are_monotone() {
        let mut prev = 0.0;
        for c in ComputeClass::ALL {
            assert!(c.mflops() > prev, "{c} should be faster than weaker tiers");
            prev = c.mflops();
        }
    }

    #[test]
    fn non_los_modalities_include_seismic_not_visual() {
        assert!(SensorKind::Seismic.works_without_line_of_sight());
        assert!(!SensorKind::Visual.works_without_line_of_sight());
        assert!(!SensorKind::Lidar.works_without_line_of_sight());
    }

    #[test]
    fn only_demolition_needs_human_authorization() {
        for a in ActuatorKind::ALL {
            assert_eq!(
                a.requires_human_authorization(),
                a == ActuatorKind::Demolition
            );
        }
    }

    #[test]
    fn radio_with_range_clamps_negative() {
        let r = Radio::with_range(RadioKind::Wifi, -10.0);
        assert_eq!(r.range_m(), 0.0);
        assert_eq!(r.kind(), RadioKind::Wifi);
    }

    #[test]
    fn empty_profile_has_nothing() {
        let p = CapabilityProfile::new();
        assert!(!p.can_sense(SensorKind::Visual));
        assert!(!p.can_actuate(ActuatorKind::Marker));
        assert_eq!(p.compute(), None);
        assert_eq!(p.max_radio_range_m(), 0.0);
    }
}
