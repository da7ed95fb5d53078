//! Node catalogs and synthetic population generation.
//!
//! A [`NodeCatalog`] is the registry of known assets that recruitment fills
//! and composition draws from. [`PopulationBuilder`] samples the large,
//! heterogeneous blue/red/gray populations (Fig. 2: "1,000s to 10,000s of
//! nodes") that every experiment in this reproduction runs against.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    Affiliation, CapabilityProfile, ComputeClass, EnergyBudget, NodeId, NodeSpec, Point, Radio,
    RadioKind, Rect, Sensor, SensorKind, TypesError,
};

/// An ordered registry of [`NodeSpec`]s keyed by [`NodeId`].
///
/// Iteration order is ascending id, so downstream algorithms are
/// deterministic given the same catalog.
///
/// ```
/// # use iobt_types::prelude::*;
/// # use iobt_types::catalog::NodeCatalog;
/// let mut catalog = NodeCatalog::new();
/// catalog.insert(NodeSpec::builder(NodeId::new(1)).build()).unwrap();
/// assert_eq!(catalog.len(), 1);
/// assert!(catalog.get(NodeId::new(1)).is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeCatalog {
    nodes: BTreeMap<NodeId, NodeSpec>,
}

impl NodeCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a node.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::DuplicateNode`] if the id is already present.
    pub fn insert(&mut self, node: NodeSpec) -> Result<(), TypesError> {
        let id = node.id();
        if self.nodes.contains_key(&id) {
            return Err(TypesError::DuplicateNode(id));
        }
        self.nodes.insert(id, node);
        Ok(())
    }

    /// Replaces a node's spec (or inserts it), returning the previous spec.
    pub fn upsert(&mut self, node: NodeSpec) -> Option<NodeSpec> {
        self.nodes.insert(node.id(), node)
    }

    /// Removes a node, returning its spec if present. Models churn and
    /// battle damage.
    pub fn remove(&mut self, id: NodeId) -> Option<NodeSpec> {
        self.nodes.remove(&id)
    }

    /// Looks up a node.
    pub fn get(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(&id)
    }

    /// Iterates over nodes in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.values()
    }

    /// All node ids in ascending order.
    pub fn ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Nodes with the given affiliation, ascending id order.
    pub fn with_affiliation(&self, affiliation: Affiliation) -> Vec<&NodeSpec> {
        self.iter()
            .filter(|n| n.affiliation() == affiliation)
            .collect()
    }

    /// Nodes able to sense the given modality, ascending id order.
    pub fn with_sensor(&self, kind: SensorKind) -> Vec<&NodeSpec> {
        self.iter()
            .filter(|n| n.capabilities().can_sense(kind))
            .collect()
    }

    /// Nodes within `radius_m` of `center`, ascending id order.
    pub fn within_radius(&self, center: Point, radius_m: f64) -> Vec<&NodeSpec> {
        let r2 = radius_m * radius_m;
        self.iter()
            .filter(|n| n.position().distance_sq_to(center) <= r2)
            .collect()
    }

    /// Nodes inside the rectangle, ascending id order.
    pub fn within_rect(&self, area: &Rect) -> Vec<&NodeSpec> {
        self.iter().filter(|n| area.contains(n.position())).collect()
    }

    /// Counts nodes per affiliation as `[blue, red, gray]`.
    pub fn affiliation_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for n in self.iter() {
            counts[n.affiliation().index()] += 1;
        }
        counts
    }
}

impl FromIterator<NodeSpec> for NodeCatalog {
    /// Collects nodes; later duplicates replace earlier ones.
    fn from_iter<T: IntoIterator<Item = NodeSpec>>(iter: T) -> Self {
        let mut catalog = NodeCatalog::new();
        for node in iter {
            catalog.upsert(node);
        }
        catalog
    }
}

impl Extend<NodeSpec> for NodeCatalog {
    fn extend<T: IntoIterator<Item = NodeSpec>>(&mut self, iter: T) {
        for node in iter {
            self.upsert(node);
        }
    }
}

impl IntoIterator for NodeCatalog {
    type Item = NodeSpec;
    type IntoIter = std::collections::btree_map::IntoValues<NodeId, NodeSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.into_values()
    }
}

/// Deterministic generator of synthetic mixed populations.
///
/// The defaults mirror the paper's description of a contested urban area:
/// mostly gray civilian devices, a blue force package, and a small red
/// contingent.
///
/// ```
/// # use iobt_types::catalog::PopulationBuilder;
/// # use iobt_types::Rect;
/// let catalog = PopulationBuilder::new(Rect::square(1_000.0))
///     .count(100)
///     .blue_fraction(0.4)
///     .red_fraction(0.1)
///     .build(42);
/// assert_eq!(catalog.len(), 100);
/// let [blue, red, gray] = catalog.affiliation_counts();
/// assert_eq!(blue + red + gray, 100);
/// ```
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    area: Rect,
    count: usize,
    blue_fraction: f64,
    red_fraction: f64,
    human_fraction: f64,
}

impl PopulationBuilder {
    /// Starts a population over `area` with default mix (30% blue, 10% red,
    /// the rest gray; 15% of gray nodes are humans).
    pub fn new(area: Rect) -> Self {
        PopulationBuilder {
            area,
            count: 100,
            blue_fraction: 0.3,
            red_fraction: 0.1,
            human_fraction: 0.15,
        }
    }

    /// Sets the number of nodes.
    pub fn count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Sets the blue fraction (clamped so blue + red ≤ 1).
    pub fn blue_fraction(mut self, fraction: f64) -> Self {
        self.blue_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the red fraction (clamped so blue + red ≤ 1).
    pub fn red_fraction(mut self, fraction: f64) -> Self {
        self.red_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the fraction of gray nodes that are human participants.
    pub fn human_fraction(mut self, fraction: f64) -> Self {
        self.human_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Samples the population deterministically from `seed`.
    pub fn build(&self, seed: u64) -> NodeCatalog {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut catalog = NodeCatalog::new();
        let blue_cut = self.blue_fraction.min(1.0);
        let red_cut = (blue_cut + self.red_fraction).min(1.0);
        for i in 0..self.count {
            let u: f64 = rng.gen();
            let affiliation = if u < blue_cut {
                Affiliation::Blue
            } else if u < red_cut {
                Affiliation::Red
            } else {
                Affiliation::Gray
            };
            let position = Point::new(
                rng.gen_range(self.area.min().x..=self.area.max().x),
                rng.gen_range(self.area.min().y..=self.area.max().y),
            );
            let is_human = affiliation == Affiliation::Gray && rng.gen::<f64>() < self.human_fraction;
            let capabilities = sample_capabilities(&mut rng, affiliation, is_human);
            let energy = sample_energy(&mut rng, &capabilities);
            let node = NodeSpec::builder(NodeId::new(i as u64))
                .affiliation(affiliation)
                .position(position)
                .capabilities(capabilities)
                .energy(energy)
                .human(is_human)
                .build();
            catalog
                .insert(node)
                // lint: allow(panic) — the builder assigns sequential ids, so duplicates are impossible
                .expect("population ids are sequential and unique");
        }
        catalog
    }
}

fn sample_capabilities(
    rng: &mut StdRng,
    affiliation: Affiliation,
    is_human: bool,
) -> CapabilityProfile {
    let mut b = CapabilityProfile::builder();
    if is_human {
        // Humans report observations through a phone: visual "sensing",
        // cellular + wifi connectivity, embedded compute.
        return b
            .sensor(Sensor::new(SensorKind::Visual, 60.0, rng.gen_range(0.4..0.9)))
            .compute(ComputeClass::Embedded)
            .radio(Radio::new(RadioKind::Cellular))
            .radio(Radio::new(RadioKind::Wifi))
            .build();
    }
    // 1-3 sensors drawn from a modality mix that depends on affiliation:
    // blue assets carry military-grade modalities more often.
    let sensor_count = rng.gen_range(1..=3);
    for _ in 0..sensor_count {
        let kind = match affiliation {
            Affiliation::Blue => {
                *pick(
                    rng,
                    &[
                        SensorKind::Visual,
                        SensorKind::Infrared,
                        SensorKind::Radar,
                        SensorKind::Lidar,
                        SensorKind::Acoustic,
                        SensorKind::Seismic,
                        SensorKind::RfSpectrum,
                        SensorKind::Chemical,
                    ],
                )
            }
            Affiliation::Red => *pick(
                rng,
                &[SensorKind::Visual, SensorKind::RfSpectrum, SensorKind::Acoustic],
            ),
            Affiliation::Gray => *pick(
                rng,
                &[
                    SensorKind::Visual,
                    SensorKind::Acoustic,
                    SensorKind::Occupancy,
                    SensorKind::Physiological,
                ],
            ),
        };
        let range = rng.gen_range(30.0..400.0);
        let quality = rng.gen_range(0.5..0.99);
        b = b.sensor(Sensor::new(kind, range, quality));
    }
    // Compute tier: heavier tiers are rarer.
    let compute = match rng.gen_range(0..100) {
        0..=39 => ComputeClass::Disposable,
        40..=79 => ComputeClass::Embedded,
        80..=94 => ComputeClass::EdgeServer,
        _ => ComputeClass::EdgeCloud,
    };
    b = b.compute(compute);
    // Radios: blue gets tactical UHF, everyone gets commodity radios.
    if affiliation == Affiliation::Blue {
        b = b.radio(Radio::new(RadioKind::TacticalUhf));
    }
    if rng.gen::<f64>() < 0.8 {
        b = b.radio(Radio::new(RadioKind::Wifi));
    }
    if rng.gen::<f64>() < 0.4 {
        b = b.radio(Radio::new(RadioKind::Cellular));
    }
    if rng.gen::<f64>() < 0.2 {
        b = b.radio(Radio::new(RadioKind::Bluetooth));
    }
    b.build()
}

fn sample_energy(rng: &mut StdRng, capabilities: &CapabilityProfile) -> EnergyBudget {
    match capabilities.compute() {
        Some(ComputeClass::EdgeCloud) | Some(ComputeClass::EdgeServer) => EnergyBudget::unlimited(),
        _ => EnergyBudget::new(rng.gen_range(500.0..20_000.0)),
    }
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node(id: u64, affiliation: Affiliation, x: f64, y: f64) -> NodeSpec {
        NodeSpec::builder(NodeId::new(id))
            .affiliation(affiliation)
            .position(Point::new(x, y))
            .build()
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut c = NodeCatalog::new();
        c.insert(node(1, Affiliation::Blue, 0.0, 0.0)).unwrap();
        let err = c.insert(node(1, Affiliation::Red, 1.0, 1.0)).unwrap_err();
        assert_eq!(err, TypesError::DuplicateNode(NodeId::new(1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(NodeId::new(1)).unwrap().affiliation(), Affiliation::Blue);
    }

    #[test]
    fn spatial_queries() {
        let mut c = NodeCatalog::new();
        c.insert(node(1, Affiliation::Blue, 0.0, 0.0)).unwrap();
        c.insert(node(2, Affiliation::Blue, 10.0, 0.0)).unwrap();
        c.insert(node(3, Affiliation::Gray, 100.0, 100.0)).unwrap();
        assert_eq!(c.within_radius(Point::ORIGIN, 15.0).len(), 2);
        assert_eq!(c.within_radius(Point::ORIGIN, 5.0).len(), 1);
        let area = Rect::square(50.0);
        assert_eq!(c.within_rect(&area).len(), 2);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut c = NodeCatalog::new();
        c.insert(node(5, Affiliation::Gray, 0.0, 0.0)).unwrap();
        c.insert(node(1, Affiliation::Gray, 0.0, 0.0)).unwrap();
        c.insert(node(3, Affiliation::Gray, 0.0, 0.0)).unwrap();
        let ids: Vec<u64> = c.iter().map(|n| n.id().raw()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let b = PopulationBuilder::new(Rect::square(500.0)).count(50);
        let a = b.build(7);
        let c = b.build(7);
        assert_eq!(a, c);
        let d = b.build(8);
        assert_ne!(a, d);
    }

    #[test]
    fn population_respects_fractions_roughly() {
        let catalog = PopulationBuilder::new(Rect::square(1_000.0))
            .count(2_000)
            .blue_fraction(0.5)
            .red_fraction(0.2)
            .build(1);
        let [blue, red, gray] = catalog.affiliation_counts();
        assert!((blue as f64 / 2_000.0 - 0.5).abs() < 0.05);
        assert!((red as f64 / 2_000.0 - 0.2).abs() < 0.05);
        assert!(gray > 0);
    }

    #[test]
    fn population_positions_inside_area() {
        let area = Rect::new(Point::new(100.0, 200.0), Point::new(300.0, 400.0));
        let catalog = PopulationBuilder::new(area).count(200).build(3);
        assert!(catalog.iter().all(|n| area.contains(n.position())));
    }

    #[test]
    fn humans_only_among_gray() {
        let catalog = PopulationBuilder::new(Rect::square(100.0))
            .count(500)
            .human_fraction(1.0)
            .build(11);
        for n in catalog.iter() {
            if n.is_human() {
                assert_eq!(n.affiliation(), Affiliation::Gray);
            }
        }
        assert!(catalog.iter().any(NodeSpec::is_human));
    }

    #[test]
    fn from_iterator_and_extend() {
        let nodes = vec![
            node(1, Affiliation::Blue, 0.0, 0.0),
            node(2, Affiliation::Red, 1.0, 1.0),
        ];
        let mut c: NodeCatalog = nodes.into_iter().collect();
        assert_eq!(c.len(), 2);
        c.extend(vec![node(3, Affiliation::Gray, 2.0, 2.0)]);
        assert_eq!(c.len(), 3);
        let back: Vec<NodeSpec> = c.into_iter().collect();
        assert_eq!(back.len(), 3);
    }

    proptest! {
        #[test]
        fn affiliation_counts_sum_to_len(count in 0usize..300, seed in 0u64..20) {
            let catalog = PopulationBuilder::new(Rect::square(100.0)).count(count).build(seed);
            let [b, r, g] = catalog.affiliation_counts();
            prop_assert_eq!(b + r + g, catalog.len());
            prop_assert_eq!(catalog.len(), count);
        }
    }
}
