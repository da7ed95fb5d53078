//! Planar geometry for battlefield layouts.
//!
//! The simulator and the synthesis engine both reason about positions on a
//! flat 2-D plane measured in meters. A [`Point`] is a location, a [`Rect`]
//! is an axis-aligned region (mission areas, coverage cells).

use std::fmt;

use iobt_ckpt::{wire_struct, Dec, DecodeError, Enc, Wire};

/// A position on the battlefield plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west coordinate in meters.
    pub x: f64,
    /// North-south coordinate in meters.
    pub y: f64,
}

wire_struct!(Point {
    x,
    y,
});

impl Point {
    /// Origin of the plane.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates in meters.
    ///
    /// ```
    /// # use iobt_types::Point;
    /// let p = Point::new(3.0, 4.0);
    /// assert_eq!(p.distance_to(Point::ORIGIN), 5.0);
    /// ```
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, in meters.
    pub fn distance_to(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance, avoiding the square root when only
    /// comparisons are needed.
    pub fn distance_sq_to(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: `t = 0` returns `self`, `t = 1` returns `other`.
    /// `t` outside `[0, 1]` extrapolates.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Returns `true` when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

/// An axis-aligned rectangle, used for mission areas and coverage cells.
///
/// Construction normalizes the corners, so any two opposite corners may be
/// supplied in either order.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    min: Point,
    max: Point,
}

/// Both corners; decoding goes through [`Rect::new`], so corrupt bytes
/// still yield a normalized rectangle.
impl Wire for Rect {
    fn put(&self, e: &mut Enc) {
        let Self { min, max } = self;
        e.put(min);
        e.put(max);
    }
    fn take(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Rect::new(d.get()?, d.get()?))
    }
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    ///
    /// ```
    /// # use iobt_types::{Point, Rect};
    /// let r = Rect::new(Point::new(10.0, 20.0), Point::new(0.0, 0.0));
    /// assert_eq!(r.min(), Point::new(0.0, 0.0));
    /// assert_eq!(r.area(), 200.0);
    /// ```
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Square region of side `side` anchored at the origin.
    pub fn square(side: f64) -> Self {
        Rect::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Lower-left corner.
    pub const fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub const fn max(&self) -> Point {
        self.max
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric center.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps `p` to the closest point inside the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// Splits the rectangle into a `cols x rows` grid of equal cells, row by
    /// row from the lower-left corner. Used by the coverage model to
    /// discretize mission areas.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn grid(&self, cols: usize, rows: usize) -> Vec<Rect> {
        assert!(cols > 0 && rows > 0, "grid dimensions must be nonzero");
        let cw = self.width() / cols as f64;
        let ch = self.height() / rows as f64;
        let mut cells = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let lo = Point::new(self.min.x + c as f64 * cw, self.min.y + r as f64 * ch);
                let hi = Point::new(lo.x + cw, lo.y + ch);
                cells.push(Rect::new(lo, hi));
            }
        }
        cells
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_to(b), 5.0);
        assert_eq!(a.distance_sq_to(b), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 20.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, 10.0));
    }

    #[test]
    fn rect_normalizes_corners() {
        let r = Rect::new(Point::new(5.0, 1.0), Point::new(-5.0, 9.0));
        assert_eq!(r.min(), Point::new(-5.0, 1.0));
        assert_eq!(r.max(), Point::new(5.0, 9.0));
        assert_eq!(r.width(), 10.0);
        assert_eq!(r.height(), 8.0);
    }

    #[test]
    fn contains_includes_boundary() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.01, 5.0)));
    }

    #[test]
    fn grid_partitions_area() {
        let r = Rect::square(100.0);
        let cells = r.grid(4, 5);
        assert_eq!(cells.len(), 20);
        let total: f64 = cells.iter().map(Rect::area).sum();
        assert!((total - r.area()).abs() < 1e-6);
        // First cell is the lower-left one.
        assert_eq!(cells[0].min(), Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn grid_rejects_zero_dims() {
        Rect::square(1.0).grid(0, 3);
    }

    #[test]
    fn clamp_projects_outside_points() {
        let r = Rect::square(10.0);
        assert_eq!(r.clamp(Point::new(-3.0, 20.0)), Point::new(0.0, 10.0));
        assert_eq!(r.clamp(Point::new(4.0, 5.0)), Point::new(4.0, 5.0));
    }

    proptest! {
        #[test]
        fn distance_symmetry(ax in -1e4..1e4f64, ay in -1e4..1e4f64,
                             bx in -1e4..1e4f64, by in -1e4..1e4f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-9);
            prop_assert!(a.distance_to(b) >= 0.0);
        }

        #[test]
        fn triangle_inequality(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                               bx in -1e3..1e3f64, by in -1e3..1e3f64,
                               cx in -1e3..1e3f64, cy in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9);
        }

        #[test]
        fn clamp_result_is_contained(px in -1e4..1e4f64, py in -1e4..1e4f64,
                                     side in 1.0..1e3f64) {
            let r = Rect::square(side);
            prop_assert!(r.contains(r.clamp(Point::new(px, py))));
        }

        #[test]
        fn grid_cells_tile_without_gaps(cols in 1usize..12, rows in 1usize..12,
                                        side in 1.0..1e3f64) {
            let r = Rect::square(side);
            let cells = r.grid(cols, rows);
            prop_assert_eq!(cells.len(), cols * rows);
            let total: f64 = cells.iter().map(Rect::area).sum();
            prop_assert!((total - r.area()).abs() < 1e-6 * r.area().max(1.0));
            for cell in &cells {
                prop_assert!(r.contains(cell.center()));
            }
        }
    }
}
