//! Node specifications: the "things" of the IoBT.

use std::fmt;

use crate::{
    Affiliation, CapabilityProfile, EnergyBudget, NodeId, Point, Radio, Sensor, TrustScore,
};

/// Static description of one IoBT entity — sensor mote, drone, edge server,
/// human-carried device, or adversarial emitter.
///
/// A `NodeSpec` is the unit that recruitment discovers, synthesis composes,
/// and the simulator instantiates. Dynamic state (current battery level,
/// live position under mobility) lives in the simulator; the spec carries
/// the initial conditions.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    id: NodeId,
    affiliation: Affiliation,
    position: Point,
    capabilities: CapabilityProfile,
    energy: EnergyBudget,
    trust: TrustScore,
    is_human: bool,
}

impl NodeSpec {
    /// Starts building a node with the given id. All other fields default
    /// to: gray affiliation, origin position, empty capabilities, default
    /// 1 kJ battery, trust from the affiliation prior, non-human.
    pub fn builder(id: NodeId) -> NodeSpecBuilder {
        NodeSpecBuilder {
            id,
            affiliation: Affiliation::Gray,
            position: Point::ORIGIN,
            capabilities: CapabilityProfile::new(),
            energy: EnergyBudget::default(),
            trust: None,
            is_human: false,
        }
    }

    /// Node identifier.
    pub const fn id(&self) -> NodeId {
        self.id
    }

    /// Blue/red/gray affiliation (ground truth; discovery must estimate it).
    pub const fn affiliation(&self) -> Affiliation {
        self.affiliation
    }

    /// Initial position.
    pub const fn position(&self) -> Point {
        self.position
    }

    /// What the node can sense/compute/actuate and how it communicates.
    pub const fn capabilities(&self) -> &CapabilityProfile {
        &self.capabilities
    }

    /// Initial energy budget.
    pub const fn energy(&self) -> EnergyBudget {
        self.energy
    }

    /// Current trust estimate (defaults to the affiliation prior).
    pub const fn trust(&self) -> TrustScore {
        self.trust
    }

    /// Whether the node is a human participant (§III-A, human assets).
    pub const fn is_human(&self) -> bool {
        self.is_human
    }

    /// Returns a copy with an updated trust score. Trust evolves as
    /// evidence accumulates in a [`TrustLedger`](crate::TrustLedger).
    pub fn with_trust(mut self, trust: TrustScore) -> Self {
        self.trust = trust;
        self
    }

    /// Returns a copy relocated to `position` (e.g. after a mobility step).
    pub fn with_position(mut self, position: Point) -> Self {
        self.position = position;
        self
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at {} trust={}",
            self.id, self.affiliation, self.position, self.trust
        )
    }
}

/// Builder for [`NodeSpec`]. See [`NodeSpec::builder`].
#[derive(Debug, Clone)]
pub struct NodeSpecBuilder {
    id: NodeId,
    affiliation: Affiliation,
    position: Point,
    capabilities: CapabilityProfile,
    energy: EnergyBudget,
    trust: Option<TrustScore>,
    is_human: bool,
}

impl NodeSpecBuilder {
    /// Sets the affiliation.
    pub fn affiliation(mut self, affiliation: Affiliation) -> Self {
        self.affiliation = affiliation;
        self
    }

    /// Sets the initial position.
    pub fn position(mut self, position: Point) -> Self {
        self.position = position;
        self
    }

    /// Replaces the whole capability profile.
    pub fn capabilities(mut self, capabilities: CapabilityProfile) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Adds a sensor to the capability profile.
    pub fn sensor(mut self, sensor: Sensor) -> Self {
        self.capabilities = {
            let mut b = CapabilityProfile::builder();
            for s in self.capabilities.sensors() {
                b = b.sensor(*s);
            }
            b = b.sensor(sensor);
            if let Some(c) = self.capabilities.compute() {
                b = b.compute(c);
            }
            for a in self.capabilities.actuators() {
                b = b.actuator(*a);
            }
            for r in self.capabilities.radios() {
                b = b.radio(*r);
            }
            b.build()
        };
        self
    }

    /// Adds a radio to the capability profile.
    pub fn radio(mut self, radio: Radio) -> Self {
        self.capabilities = {
            let mut b = CapabilityProfile::builder();
            for s in self.capabilities.sensors() {
                b = b.sensor(*s);
            }
            if let Some(c) = self.capabilities.compute() {
                b = b.compute(c);
            }
            for a in self.capabilities.actuators() {
                b = b.actuator(*a);
            }
            for r in self.capabilities.radios() {
                b = b.radio(*r);
            }
            b = b.radio(radio);
            b.build()
        };
        self
    }

    /// Sets the energy budget.
    pub fn energy(mut self, energy: EnergyBudget) -> Self {
        self.energy = energy;
        self
    }

    /// Overrides the trust score (defaults to the affiliation prior).
    pub fn trust(mut self, trust: TrustScore) -> Self {
        self.trust = Some(trust);
        self
    }

    /// Marks the node as a human participant.
    pub fn human(mut self, is_human: bool) -> Self {
        self.is_human = is_human;
        self
    }

    /// Finishes the node.
    pub fn build(self) -> NodeSpec {
        let trust = self
            .trust
            .unwrap_or_else(|| TrustScore::new(self.affiliation.prior_trust()));
        NodeSpec {
            id: self.id,
            affiliation: self.affiliation,
            position: self.position,
            capabilities: self.capabilities,
            energy: self.energy,
            trust,
            is_human: self.is_human,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RadioKind, SensorKind};

    #[test]
    fn builder_defaults() {
        let n = NodeSpec::builder(NodeId::new(1)).build();
        assert_eq!(n.affiliation(), Affiliation::Gray);
        assert_eq!(n.position(), Point::ORIGIN);
        assert!((n.trust().value() - Affiliation::Gray.prior_trust()).abs() < 1e-9);
        assert!(!n.is_human());
        assert!(n.capabilities().is_isolated());
    }

    #[test]
    fn incremental_sensor_and_radio_addition() {
        let n = NodeSpec::builder(NodeId::new(2))
            .sensor(Sensor::new(SensorKind::Acoustic, 100.0, 0.9))
            .sensor(Sensor::new(SensorKind::Seismic, 50.0, 0.8))
            .radio(Radio::new(RadioKind::Wifi))
            .build();
        assert_eq!(n.capabilities().sensors().len(), 2);
        assert!(n.capabilities().can_sense(SensorKind::Seismic));
        assert_eq!(n.capabilities().radios().len(), 1);
    }

    #[test]
    fn explicit_trust_overrides_prior() {
        let n = NodeSpec::builder(NodeId::new(3))
            .affiliation(Affiliation::Red)
            .trust(TrustScore::new(0.7))
            .build();
        assert_eq!(n.trust().value(), 0.7);
    }

    #[test]
    fn with_position_and_trust_are_pure_updates() {
        let n = NodeSpec::builder(NodeId::new(4)).build();
        let moved = n.clone().with_position(Point::new(5.0, 5.0));
        assert_eq!(n.position(), Point::ORIGIN);
        assert_eq!(moved.position(), Point::new(5.0, 5.0));
        let trusted = n.clone().with_trust(TrustScore::FULL);
        assert_eq!(trusted.trust(), TrustScore::FULL);
    }

    #[test]
    fn display_mentions_id_and_affiliation() {
        let n = NodeSpec::builder(NodeId::new(9))
            .affiliation(Affiliation::Blue)
            .build();
        let s = n.to_string();
        assert!(s.contains("n9"));
        assert!(s.contains("blue"));
    }
}
