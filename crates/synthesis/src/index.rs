//! Lattice index over grid cell centers.
//!
//! Problem construction must decide, for every (candidate, modality)
//! pair, which cells the candidate's sensor reaches. The brute-force scan
//! checks every cell center — `O(candidates × modalities × cells)` — which
//! dominates construction time at 10k-candidate scale. Mission grids are
//! uniform, so per-axis coordinate arrays answer "which centers lie within
//! range `r` of point `p`?" touching only the bounding box of the query
//! disc.

use iobt_types::Point;

/// A spatial index over a fixed set of points (cell centers).
///
/// Two layouts, chosen at build time:
///
/// - **Uniform**: mission grids are exact row-major lattices (every row
///   repeats the same column x-coordinates bit-for-bit). Queries then
///   reduce to two interval lookups on tiny per-axis coordinate arrays
///   plus one `dx² + dy²` test per cell in the bounding box — no
///   division, no sqrt, no indirection through the centers slice.
/// - **Scan**: anything else (a zero-width mission area, jittered points)
///   tests every center. Every in-repo caller hands over a lattice, so
///   this arm only has to be correct, not fast.
#[derive(Debug, Clone)]
pub struct CellIndex {
    layout: Layout,
}

#[derive(Debug, Clone)]
enum Layout {
    Uniform {
        /// Column x-coordinates (strictly increasing, `cols` long).
        xs: Vec<f64>,
        /// Row y-coordinates (strictly increasing, `rows` long).
        ys: Vec<f64>,
        /// `1 / column pitch` (1.0 for a single column); only an
        /// accelerator for interval lookup — exactness never depends on it.
        inv_px: f64,
        /// `1 / row pitch`, same caveat.
        inv_py: f64,
    },
    Scan,
}

/// Detects an exact row-major lattice: `centers[r * cols + c]` must equal
/// `(xs[c], ys[r])` bit-for-bit with both axes strictly increasing.
fn detect_uniform(centers: &[Point]) -> Option<(Vec<f64>, Vec<f64>)> {
    let first_y = centers[0].y;
    let cols = centers
        .iter()
        .position(|c| c.y != first_y)
        .unwrap_or(centers.len());
    if !centers.len().is_multiple_of(cols) {
        return None;
    }
    let rows = centers.len() / cols;
    let xs: Vec<f64> = centers[..cols].iter().map(|c| c.x).collect();
    let ys: Vec<f64> = (0..rows).map(|r| centers[r * cols].y).collect();
    if xs.windows(2).any(|w| w[0] >= w[1]) || ys.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    for (i, c) in centers.iter().enumerate() {
        if c.x != xs[i % cols] || c.y != ys[i / cols] {
            return None;
        }
    }
    Some((xs, ys))
}

/// First/one-past-last index of `coords` values inside `[lo, hi]`.
///
/// The pitch estimate only seeds the position; the fix-up loops make the
/// result exact for any strictly increasing `coords`.
#[inline]
fn interval(coords: &[f64], inv_pitch: f64, lo: f64, hi: f64) -> (usize, usize) {
    let n = coords.len();
    let origin = coords[0];
    let mut a = ((lo - origin) * inv_pitch).ceil().clamp(0.0, n as f64) as usize;
    while a > 0 && coords[a - 1] >= lo {
        a -= 1;
    }
    while a < n && coords[a] < lo {
        a += 1;
    }
    let mut b = (((hi - origin) * inv_pitch).floor() + 1.0).clamp(0.0, n as f64) as usize;
    while b < n && coords[b] <= hi {
        b += 1;
    }
    while b > 0 && coords[b - 1] > hi {
        b -= 1;
    }
    (a, b)
}

impl CellIndex {
    /// Builds an index over `centers`. Exact row-major lattices (the mission
    /// grid case) get the uniform layout; anything else is scanned.
    pub fn build(centers: &[Point]) -> Self {
        if let Some((xs, ys)) = (!centers.is_empty())
            .then(|| detect_uniform(centers))
            .flatten()
        {
            let inv = |c: &[f64]| {
                if c.len() > 1 {
                    1.0 / (c[1] - c[0])
                } else {
                    1.0
                }
            };
            return CellIndex {
                layout: Layout::Uniform {
                    inv_px: inv(&xs),
                    inv_py: inv(&ys),
                    xs,
                    ys,
                },
            };
        }
        CellIndex {
            layout: Layout::Scan,
        }
    }

    /// Multi-modality range query: reports every center `ci` within
    /// `ranges[mi]` meters of `pos` (inclusive boundary, bit-identical to a
    /// full-scan `distance_sq_to` check) as half-open center-index runs
    /// `run(start, end, mi)`. Negative entries — e.g. a `NEG_INFINITY`
    /// "missing modality" sentinel — never hit. One sweep of the union
    /// disc replaces one query per modality, which matters when the
    /// per-query setup rivals the per-cell work. Visit order is
    /// layout-defined, not index-sorted.
    ///
    /// On the uniform layout the centers a disc reaches in one grid row are
    /// contiguous (`dx²` is unimodal along a row, exactly, even in floating
    /// point), so each (row, modality) yields at most one run found by
    /// scanning inward from the bounding-box edges — interior cells are
    /// never distance-tested. The scan layout reports single-cell runs.
    /// Callers that can sink whole runs (e.g. bitset construction)
    /// avoid per-hit work entirely.
    #[inline]
    pub fn for_each_covered_run(
        &self,
        centers: &[Point],
        pos: Point,
        ranges: &[f64],
        mut run: impl FnMut(u32, u32, usize),
    ) {
        let mut rmax = -1.0f64;
        for &r in ranges {
            if r > rmax {
                rmax = r;
            }
        }
        if rmax < 0.0 {
            return;
        }
        match &self.layout {
            Layout::Uniform { xs, ys, inv_px, inv_py } => {
                let (c0, c1) = interval(xs, *inv_px, pos.x - rmax, pos.x + rmax);
                if c0 >= c1 {
                    return;
                }
                let (r0, r1) = interval(ys, *inv_py, pos.y - rmax, pos.y + rmax);
                let cols = xs.len();
                let row = &xs[c0..c1];
                for (dr, &y) in ys[r0..r1].iter().enumerate() {
                    let dy = pos.y - y;
                    let dy2 = dy * dy;
                    let base = ((r0 + dr) * cols + c0) as u32;
                    for (mi, &rg) in ranges.iter().enumerate() {
                        if rg < 0.0 {
                            continue;
                        }
                        // Same expression shape as `Point::distance_sq_to`
                        // (`dx * dx + dy * dy` vs `r * r`), so the inclusive
                        // boundary matches the full scan bit-for-bit.
                        let rsq = rg * rg;
                        if dy2 > rsq {
                            continue; // d2 >= dy2 for every cell in the row
                        }
                        let inside = |&x: &f64| {
                            let dx = pos.x - x;
                            dx * dx + dy2 <= rsq
                        };
                        let Some(a) = row.iter().position(inside) else {
                            continue;
                        };
                        // A hit exists, so the reverse scan terminates.
                        // lint: allow(panic) — the forward scan just found a member, so the reverse scan must too
                        let b = row.len() - row.iter().rev().position(inside).unwrap();
                        run(base + a as u32, base + b as u32, mi);
                    }
                }
            }
            Layout::Scan => {
                for (ci, &center) in centers.iter().enumerate() {
                    let d2 = pos.distance_sq_to(center);
                    for (mi, &r) in ranges.iter().enumerate() {
                        if r >= 0.0 && d2 <= r * r {
                            run(ci as u32, ci as u32 + 1, mi);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_centers(n: usize, pitch: f64) -> Vec<Point> {
        let mut v = Vec::new();
        for r in 0..n {
            for c in 0..n {
                v.push(Point::new(
                    (c as f64 + 0.5) * pitch,
                    (r as f64 + 0.5) * pitch,
                ));
            }
        }
        v
    }

    fn query_sorted(index: &CellIndex, centers: &[Point], pos: Point, range: f64) -> Vec<u32> {
        let mut out = Vec::new();
        index.for_each_covered_run(centers, pos, &[range], |s, e, _| out.extend(s..e));
        out.sort_unstable();
        out
    }

    fn scan_sorted(centers: &[Point], pos: Point, range: f64) -> Vec<u32> {
        (0..centers.len() as u32)
            .filter(|&ci| pos.distance_sq_to(centers[ci as usize]) <= range * range)
            .collect()
    }

    #[test]
    fn matches_full_scan_on_a_grid() {
        let centers = grid_centers(12, 100.0);
        let index = CellIndex::build(&centers);
        for (px, py, r) in [
            (600.0, 600.0, 150.0),
            (0.0, 0.0, 400.0),
            (1250.0, 30.0, 90.0),
            (-500.0, -500.0, 100.0), // fully outside
            (600.0, 600.0, 5_000.0), // covers everything
            (601.0, 599.0, 0.0),
        ] {
            let pos = Point::new(px, py);
            assert_eq!(
                query_sorted(&index, &centers, pos, r),
                scan_sorted(&centers, pos, r),
                "query at ({px}, {py}) range {r}"
            );
        }
    }

    #[test]
    fn inclusive_boundary_matches_scan() {
        let centers = grid_centers(4, 10.0);
        let index = CellIndex::build(&centers);
        // Exactly on-boundary: distance to (5, 5) from (15, 5) is 10.
        let pos = Point::new(15.0, 5.0);
        let hits = query_sorted(&index, &centers, pos, 10.0);
        assert_eq!(hits, scan_sorted(&centers, pos, 10.0));
        assert!(hits.contains(&0));
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let index = CellIndex::build(&[]);
        index.for_each_covered_run(&[], Point::ORIGIN, &[100.0], |_, _, _| {
            panic!("no centers to hit")
        });
        // All centers coincident.
        let same = vec![Point::new(5.0, 5.0); 7];
        let index = CellIndex::build(&same);
        let hits = query_sorted(&index, &same, Point::new(5.0, 5.0), 1.0);
        assert_eq!(hits, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(query_sorted(&index, &same, Point::new(50.0, 50.0), 1.0).is_empty());
    }

    #[test]
    fn scattered_points_match_scan() {
        // Non-lattice input exercises the scan layout.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let centers: Vec<Point> = (0..257)
            .map(|_| Point::new(next() * 1_900.0, next() * 1_900.0))
            .collect();
        let index = CellIndex::build(&centers);
        for (px, py, r) in [
            (950.0, 950.0, 200.0),
            (0.0, 1_900.0, 700.0),
            (-100.0, 300.0, 150.0),
            (950.0, 950.0, 10_000.0),
        ] {
            let pos = Point::new(px, py);
            assert_eq!(
                query_sorted(&index, &centers, pos, r),
                scan_sorted(&centers, pos, r),
                "query at ({px}, {py}) range {r}"
            );
        }
    }

    #[test]
    fn jittered_grid_falls_back_and_matches_scan() {
        let mut centers = grid_centers(6, 50.0);
        centers[17].x += 0.125; // break exact-lattice detection
        let index = CellIndex::build(&centers);
        for r in [0.0, 40.0, 75.0, 1_000.0] {
            let pos = Point::new(151.0, 149.0);
            assert_eq!(
                query_sorted(&index, &centers, pos, r),
                scan_sorted(&centers, pos, r)
            );
        }
    }

    #[test]
    fn single_row_and_single_column_grids_match_scan() {
        for centers in [
            (0..9).map(|c| Point::new(c as f64 * 10.0, 5.0)).collect::<Vec<_>>(),
            (0..9).map(|r| Point::new(5.0, r as f64 * 10.0)).collect::<Vec<_>>(),
        ] {
            let index = CellIndex::build(&centers);
            for (px, py, r) in [(25.0, 5.0, 10.0), (5.0, 25.0, 10.0), (40.0, 40.0, 60.0)] {
                let pos = Point::new(px, py);
                assert_eq!(
                    query_sorted(&index, &centers, pos, r),
                    scan_sorted(&centers, pos, r),
                    "query at ({px}, {py}) range {r}"
                );
            }
        }
    }

    #[test]
    fn negative_range_hits_nothing() {
        let centers = grid_centers(3, 1.0);
        let index = CellIndex::build(&centers);
        index.for_each_covered_run(&centers, Point::new(1.0, 1.0), &[-1.0], |_, _, _| {
            panic!("negative range")
        });
    }
}
