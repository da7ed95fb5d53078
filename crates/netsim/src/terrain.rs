//! Terrain model: clutter classes affecting radio propagation.
//!
//! §II of the paper spans "the highly dense and cluttered mega-city
//! environment" to "sparse terrain with limited entities". We model terrain
//! as a grid of clutter classes; each class selects a path-loss exponent
//! and shadowing spread for the [channel model](crate::channel).

use iobt_types::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Propagation environment of a terrain cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Clutter {
    /// Unobstructed flat ground.
    #[default]
    Open,
    /// Light vegetation or low buildings.
    Suburban,
    /// Dense high-rise urban canyon.
    Urban,
}

impl Clutter {
    /// Path-loss exponent `n` for the log-distance model; free space is 2.
    pub const fn path_loss_exponent(self) -> f64 {
        match self {
            Clutter::Open => 2.1,
            Clutter::Suburban => 2.8,
            Clutter::Urban => 3.5,
        }
    }

    /// Log-normal shadowing standard deviation in dB.
    pub const fn shadowing_sigma_db(self) -> f64 {
        match self {
            Clutter::Open => 2.0,
            Clutter::Suburban => 4.0,
            Clutter::Urban => 7.0,
        }
    }
}

/// A rectangular battlefield tiled with clutter cells.
///
/// ```
/// # use iobt_netsim::terrain::{Clutter, Terrain};
/// # use iobt_types::{Point, Rect};
/// let t = Terrain::uniform(Rect::square(1_000.0), Clutter::Urban);
/// assert_eq!(t.clutter_at(Point::new(500.0, 500.0)), Clutter::Urban);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Terrain {
    bounds: Rect,
    cols: usize,
    rows: usize,
    cells: Vec<Clutter>,
}

impl Terrain {
    /// A single-cell terrain of uniform clutter.
    pub fn uniform(bounds: Rect, clutter: Clutter) -> Self {
        Terrain {
            bounds,
            cols: 1,
            rows: 1,
            cells: vec![clutter],
        }
    }

    /// Creates a terrain from an explicit row-major cell grid.
    ///
    /// # Panics
    ///
    /// Panics when `cells.len() != cols * rows` or either dimension is zero.
    pub fn from_cells(bounds: Rect, cols: usize, rows: usize, cells: Vec<Clutter>) -> Self {
        assert!(cols > 0 && rows > 0, "terrain dimensions must be nonzero");
        assert_eq!(cells.len(), cols * rows, "cell count must match grid");
        Terrain {
            bounds,
            cols,
            rows,
            cells,
        }
    }

    /// Samples a mixed urban battlefield: an urban core surrounded by
    /// suburban fringe over open ground, with `seed` controlling the exact
    /// layout. The split is roughly 25% urban / 35% suburban / 40% open.
    pub fn random_urban(bounds: Rect, cols: usize, rows: usize, seed: u64) -> Self {
        assert!(cols > 0 && rows > 0, "terrain dimensions must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let center = bounds.center();
        let max_d = center.distance_to(bounds.max());
        let mut cells = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let cell_center = Point::new(
                    bounds.min().x + (c as f64 + 0.5) * bounds.width() / cols as f64,
                    bounds.min().y + (r as f64 + 0.5) * bounds.height() / rows as f64,
                );
                // Urban probability decays with distance from the core.
                let d = cell_center.distance_to(center) / max_d.max(1e-9);
                let u: f64 = rng.gen();
                let clutter = if u < (0.7 - d).max(0.05) {
                    Clutter::Urban
                } else if u < (0.95 - 0.5 * d).max(0.3) {
                    Clutter::Suburban
                } else {
                    Clutter::Open
                };
                cells.push(clutter);
            }
        }
        Terrain {
            bounds,
            cols,
            rows,
            cells,
        }
    }

    /// Battlefield bounds.
    pub const fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Clutter at a point; points outside the bounds clamp to the nearest
    /// cell.
    pub fn clutter_at(&self, p: Point) -> Clutter {
        let p = self.bounds.clamp(p);
        let cx = (((p.x - self.bounds.min().x) / self.bounds.width().max(1e-9))
            * self.cols as f64) as usize;
        let cy = (((p.y - self.bounds.min().y) / self.bounds.height().max(1e-9))
            * self.rows as f64) as usize;
        let cx = cx.min(self.cols - 1);
        let cy = cy.min(self.rows - 1);
        self.cells[cy * self.cols + cx]
    }

    /// The worse (more lossy) clutter along the segment between two points,
    /// sampled at cell granularity. Used for link budgets: a link through an
    /// urban canyon behaves like urban even if the endpoints sit in the open.
    /// Nothing is worse than urban, so the scan stops at the first such
    /// sample.
    pub fn clutter_between(&self, a: Point, b: Point) -> Clutter {
        let steps = 8;
        let mut worst = Clutter::Open;
        for i in 0..=steps {
            let c = self.clutter_at(a.lerp(b, i as f64 / steps as f64));
            if c == Clutter::Urban {
                return c;
            }
            if severity(c) > severity(worst) {
                worst = c;
            }
        }
        worst
    }

    /// Fraction of cells of each clutter class as `[open, suburban, urban]`.
    pub fn clutter_mix(&self) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for c in &self.cells {
            counts[severity(*c)] += 1;
        }
        let total = self.cells.len() as f64;
        [
            counts[0] as f64 / total,
            counts[1] as f64 / total,
            counts[2] as f64 / total,
        ]
    }
}

impl Default for Terrain {
    /// 1 km × 1 km of open ground.
    fn default() -> Self {
        Terrain::uniform(Rect::square(1_000.0), Clutter::Open)
    }
}

const fn severity(c: Clutter) -> usize {
    match c {
        Clutter::Open => 0,
        Clutter::Suburban => 1,
        Clutter::Urban => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_terrain_everywhere() {
        let t = Terrain::uniform(Rect::square(100.0), Clutter::Suburban);
        assert_eq!(t.clutter_at(Point::new(0.0, 0.0)), Clutter::Suburban);
        assert_eq!(t.clutter_at(Point::new(99.9, 99.9)), Clutter::Suburban);
        // Outside points clamp.
        assert_eq!(t.clutter_at(Point::new(-50.0, 500.0)), Clutter::Suburban);
    }

    #[test]
    fn from_cells_maps_row_major() {
        let t = Terrain::from_cells(
            Rect::square(100.0),
            2,
            2,
            vec![Clutter::Open, Clutter::Urban, Clutter::Suburban, Clutter::Open],
        );
        assert_eq!(t.clutter_at(Point::new(25.0, 25.0)), Clutter::Open);
        assert_eq!(t.clutter_at(Point::new(75.0, 25.0)), Clutter::Urban);
        assert_eq!(t.clutter_at(Point::new(25.0, 75.0)), Clutter::Suburban);
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn from_cells_validates_length() {
        Terrain::from_cells(Rect::square(10.0), 2, 2, vec![Clutter::Open]);
    }

    #[test]
    fn clutter_between_takes_the_worst() {
        let t = Terrain::from_cells(
            Rect::square(100.0),
            2,
            1,
            vec![Clutter::Open, Clutter::Urban],
        );
        let worst = t.clutter_between(Point::new(10.0, 50.0), Point::new(90.0, 50.0));
        assert_eq!(worst, Clutter::Urban);
    }

    #[test]
    fn clutter_between_early_exit_equals_the_full_scan() {
        // The scan it replaced: all nine samples, worst kept.
        fn nine_sample_scan(t: &Terrain, a: Point, b: Point) -> Clutter {
            (0..=8)
                .map(|i| t.clutter_at(a.lerp(b, f64::from(i) / 8.0)))
                .max_by_key(|&c| severity(c))
                .expect("nine samples")
        }
        let classes = [Clutter::Open, Clutter::Suburban, Clutter::Urban];
        let (cols, rows) = (6, 5);
        let cells = (0..cols * rows).map(|i| classes[(i * 7 + i / cols) % 3]).collect();
        let t = Terrain::from_cells(Rect::square(600.0), cols, rows, cells);
        let centre = |i: usize| {
            Point::new(((i % cols) as f64 + 0.5) * 100.0, ((i / cols) as f64 + 0.5) * 120.0)
        };
        let mut seen = [0usize; 3];
        for i in 0..cols * rows {
            for j in 0..cols * rows {
                let (a, b) = (centre(i), centre(j));
                let c = t.clutter_between(a, b);
                assert_eq!(c, nine_sample_scan(&t, a, b), "cells {i} -> {j}");
                seen[severity(c)] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every class must be an answer: {seen:?}");
    }

    #[test]
    fn random_urban_is_deterministic_and_mixed() {
        let bounds = Rect::square(2_000.0);
        let a = Terrain::random_urban(bounds, 20, 20, 5);
        let b = Terrain::random_urban(bounds, 20, 20, 5);
        assert_eq!(a, b);
        let mix = a.clutter_mix();
        assert!((mix.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(mix[2] > 0.05, "urban core should exist: {mix:?}");
    }

    #[test]
    fn exponents_grow_with_clutter() {
        assert!(Clutter::Open.path_loss_exponent() < Clutter::Suburban.path_loss_exponent());
        assert!(Clutter::Suburban.path_loss_exponent() < Clutter::Urban.path_loss_exponent());
        assert!(Clutter::Urban.shadowing_sigma_db() > Clutter::Open.shadowing_sigma_db());
    }
}
