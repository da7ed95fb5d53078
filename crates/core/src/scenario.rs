//! Scenario builders: the operations the paper's introduction motivates.
//!
//! Each builder produces a [`Scenario`] — population, terrain, mission,
//! command post, and planned disruptions — for one of the operation types
//! from §I/§II: non-combatant evacuation, wide-area persistent
//! surveillance, and disaster relief.

use iobt_faults::FaultPlan;
use iobt_netsim::{Jammer, SimTime, Terrain};
use iobt_types::catalog::PopulationBuilder;
use iobt_types::{
    Affiliation, CommanderIntent, ComputeClass, EnergyBudget, Mission, MissionId, MissionKind,
    NodeCatalog, NodeId, NodeSpec, Point, Priority, Radio, RadioKind, Rect, Sensor, SensorKind,
    TrustScore,
};

/// A planned mid-mission disruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disruption {
    /// Jammer `index` (into [`Scenario::jammers`]) switches on.
    JammerOn {
        /// When the jammer activates.
        at: SimTime,
        /// Index into the scenario's jammer list.
        index: usize,
    },
    /// A node is destroyed.
    NodeLoss {
        /// When the node dies.
        at: SimTime,
        /// The node that dies.
        node: NodeId,
    },
}

/// A complete runnable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// All nodes (population + command post + mission assets).
    pub catalog: NodeCatalog,
    /// Terrain the scenario plays out on.
    pub terrain: Terrain,
    /// The mission refined from commander's intent.
    pub mission: Mission,
    /// The original intent statement.
    pub intent: CommanderIntent,
    /// Jammers present. Every built-in scenario's start inactive and are
    /// switched on by a [`Disruption::JammerOn`]; an inactive jammer adds
    /// nothing to the noise floor. One that is already `active` at t = 0
    /// radiates from the first instant, and the reachability filter judges
    /// recruits on the topology it leaves: assets it cuts off from the
    /// command post are counted `unreachable`, not composed.
    pub jammers: Vec<Jammer>,
    /// Planned disruptions, time-ordered.
    pub disruptions: Vec<Disruption>,
    /// Structured fault schedule (crashes, blackouts, partitions,
    /// degradations, compromises), scheduled alongside `disruptions`.
    pub fault_plan: FaultPlan,
    /// The command-post node reports flow to.
    pub command_post: NodeId,
    /// Seed everything downstream should derive randomness from.
    pub seed: u64,
}

/// Command-post id, chosen far above population ids.
pub const COMMAND_POST_ID: u64 = 1_000_000;

fn command_post(position: Point) -> NodeSpec {
    NodeSpec::builder(NodeId::new(COMMAND_POST_ID))
        .affiliation(Affiliation::Blue)
        .position(position)
        .capabilities(
            iobt_types::CapabilityProfile::builder()
                .compute(ComputeClass::EdgeCloud)
                .radio(Radio::new(RadioKind::TacticalUhf))
                .radio(Radio::new(RadioKind::Wifi))
                .radio(Radio::new(RadioKind::Cellular))
                .build(),
        )
        .energy(EnergyBudget::unlimited())
        .trust(TrustScore::FULL)
        .build()
}

/// Ensures every blue node can reach the tactical mesh: blue assets in the
/// population that lack a UHF radio get relay coverage through wifi; the
/// population builder already gives blue nodes UHF.
fn base_population(area: Rect, count: usize, seed: u64) -> NodeCatalog {
    PopulationBuilder::new(area)
        .count(count)
        .blue_fraction(0.35)
        .red_fraction(0.1)
        .human_fraction(0.2)
        .build(seed)
}

/// Non-combatant evacuation in a dense urban core (§I's motivating
/// vignette): critical priority, tight latency, an RF jammer near the
/// evacuation corridor, and battle damage to part of the sensor fleet.
pub fn urban_evacuation(node_count: usize, seed: u64) -> Scenario {
    let area = Rect::square(2_000.0);
    let terrain = Terrain::random_urban(area, 20, 20, seed);
    let mut catalog = base_population(area, node_count, seed);
    let post = command_post(Point::new(1_000.0, 1_000.0));
    let command_post_id = post.id();
    catalog.upsert(post);
    let intent = CommanderIntent::new(
        MissionKind::Evacuation,
        area,
        "evacuate non-combatants along safe routes through the eastern corridor",
    )
    .with_priority(Priority::Critical);
    let mission = iobt_types::mission::refine_intent(MissionId::new(1), &intent);
    let jammers = vec![Jammer {
        position: Point::new(1_400.0, 1_000.0),
        power_w: 30.0,
        active: false,
    }];
    let disruptions = vec![Disruption::JammerOn {
        at: SimTime::from_secs_f64(60.0),
        index: 0,
    }];
    Scenario {
        catalog,
        terrain,
        mission,
        intent,
        jammers,
        disruptions,
        fault_plan: FaultPlan::new(),
        command_post: command_post_id,
        seed,
    }
}

/// Wide-area persistent surveillance over mixed terrain (§II's first task
/// example): normal priority, long horizon, gradual attrition of sensing
/// assets.
pub fn persistent_surveillance(node_count: usize, seed: u64) -> Scenario {
    let area = Rect::square(3_000.0);
    let terrain = Terrain::random_urban(area, 15, 15, seed.wrapping_add(1));
    let mut catalog = base_population(area, node_count, seed);
    let post = command_post(Point::new(1_500.0, 1_500.0));
    let command_post_id = post.id();
    catalog.upsert(post);
    let intent = CommanderIntent::new(
        MissionKind::Surveillance,
        area,
        "maintain persistent surveillance of the sector; report all vehicle movement",
    );
    let mission = iobt_types::mission::refine_intent(MissionId::new(2), &intent);
    // Attrition: a deterministic sample of blue sensors dies mid-mission.
    let victims: Vec<NodeId> = catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .filter(|n| n.capabilities().can_sense(SensorKind::Visual))
        .take(3)
        .map(|n| n.id())
        .collect();
    let disruptions = victims
        .into_iter()
        .enumerate()
        .map(|(i, node)| Disruption::NodeLoss {
            at: SimTime::from_secs_f64(45.0 + 15.0 * i as f64),
            node,
        })
        .collect();
    Scenario {
        catalog,
        terrain,
        mission,
        intent,
        jammers: Vec::new(),
        disruptions,
        fault_plan: FaultPlan::new(),
        command_post: command_post_id,
        seed,
    }
}

/// Post-disaster relief (§I's Puerto Rico example): open terrain, chemical
/// and infrared sensing for survivor detection, infrastructure loss at
/// start, no deliberate adversary but degraded everything.
pub fn disaster_relief(node_count: usize, seed: u64) -> Scenario {
    let area = Rect::square(4_000.0);
    let terrain = Terrain::uniform(area, iobt_netsim::Clutter::Suburban);
    let mut catalog = PopulationBuilder::new(area)
        .count(node_count)
        .blue_fraction(0.25)
        .red_fraction(0.0)
        .human_fraction(0.35)
        .build(seed);
    // Augment: relief flights dropped infrared/chemical sensor pods.
    let base = catalog.len() as u64;
    for i in 0..(node_count / 10).max(4) {
        let pod = NodeSpec::builder(NodeId::new(base + i as u64))
            .affiliation(Affiliation::Blue)
            .position(Point::new(
                (i as f64 * 997.0) % 4_000.0,
                (i as f64 * 1_409.0) % 4_000.0,
            ))
            .sensor(Sensor::new(SensorKind::Infrared, 400.0, 0.85))
            .sensor(Sensor::new(SensorKind::Chemical, 300.0, 0.8))
            .radio(Radio::new(RadioKind::TacticalUhf))
            .energy(EnergyBudget::new(50_000.0))
            .build();
        catalog.upsert(pod);
    }
    let post = command_post(Point::new(2_000.0, 2_000.0));
    let command_post_id = post.id();
    catalog.upsert(post);
    let intent = CommanderIntent::new(
        MissionKind::DisasterRelief,
        area,
        "locate survivors and hazardous leaks; prioritize densely populated blocks",
    )
    .with_priority(Priority::Critical);
    let mission = iobt_types::mission::refine_intent(MissionId::new(3), &intent);
    Scenario {
        catalog,
        terrain,
        mission,
        intent,
        jammers: Vec::new(),
        disruptions: Vec::new(),
        fault_plan: FaultPlan::new(),
        command_post: command_post_id,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evacuation_scenario_is_well_formed() {
        let s = urban_evacuation(200, 1);
        assert_eq!(s.catalog.len(), 201, "population plus command post");
        assert!(s.catalog.get(s.command_post).is_some());
        assert_eq!(s.mission.kind(), MissionKind::Evacuation);
        assert_eq!(s.mission.resilience(), 2, "critical intent doubles k");
        assert_eq!(s.jammers.len(), 1);
        assert!(!s.jammers[0].active, "jammer starts off");
        assert_eq!(s.disruptions.len(), 1);
    }

    #[test]
    fn surveillance_schedules_attrition() {
        let s = persistent_surveillance(300, 2);
        assert!(!s.disruptions.is_empty());
        for d in &s.disruptions {
            match d {
                Disruption::NodeLoss { node, .. } => {
                    assert!(s.catalog.get(*node).is_some());
                }
                other => panic!("unexpected disruption {other:?}"),
            }
        }
    }

    #[test]
    fn disaster_relief_has_ir_chem_pods_and_no_red() {
        let s = disaster_relief(150, 3);
        let [_, red, _] = s.catalog.affiliation_counts();
        assert_eq!(red, 0);
        assert!(!s.catalog.with_sensor(SensorKind::Infrared).is_empty());
        assert!(!s.catalog.with_sensor(SensorKind::Chemical).is_empty());
        assert_eq!(
            s.mission.required_modalities(),
            vec![SensorKind::Infrared, SensorKind::Chemical]
        );
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = urban_evacuation(100, 9);
        let b = urban_evacuation(100, 9);
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.mission, b.mission);
    }

    #[test]
    fn command_post_is_blue_trusted_and_connected() {
        for s in [
            urban_evacuation(50, 1),
            persistent_surveillance(50, 1),
            disaster_relief(50, 1),
        ] {
            let post = s.catalog.get(s.command_post).unwrap();
            assert_eq!(post.affiliation(), Affiliation::Blue);
            assert_eq!(post.trust(), TrustScore::FULL);
            assert!(!post.capabilities().is_isolated());
        }
    }
}
