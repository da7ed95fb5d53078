//! Minimal dense linear algebra for tomography: rank, row space
//! membership, and minimum-norm least-squares solutions.
//!
//! Implemented from scratch (Gaussian elimination with partial pivoting);
//! matrices here are small (≤ a few hundred paths × links), so dense
//! elimination is the right tool.

// Index loops mirror the usual linear-algebra notation (row r, column c);
// enumerate/zip chains obscure the elimination structure.
#![allow(clippy::needless_range_loop)]

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Numerical tolerance for treating a pivot as zero.
pub const EPS: f64 = 1e-9;

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics when rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row length differs from the column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length must match columns");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// `A x` for a vector `x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.get(r, c) * x[c])
                    .sum()
            })
            .collect()
    }

    /// `Aᵀ y` for a vector `y`.
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != rows`.
    pub fn transpose_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self.get(r, c) * y[r];
            }
        }
        out
    }

    /// Rank via Gaussian elimination with partial pivoting.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..m.cols {
            // Find pivot.
            let mut pivot = row;
            for r in row..m.rows {
                if m.get(r, col).abs() > m.get(pivot, col).abs() {
                    pivot = r;
                }
            }
            if row >= m.rows || m.get(pivot, col).abs() < EPS {
                continue;
            }
            m.swap_rows(row, pivot);
            let pv = m.get(row, col);
            for r in (row + 1)..m.rows {
                let factor = m.get(r, col) / pv;
                if factor != 0.0 {
                    for c in col..m.cols {
                        let v = m.get(r, c) - factor * m.get(row, c);
                        m.set(r, c, v);
                    }
                }
            }
            rank += 1;
            row += 1;
            if row == m.rows {
                break;
            }
        }
        rank
    }

    /// Whether the vector `v` lies in the row space of `self`:
    /// `rank([A; v]) == rank(A)`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != cols`.
    pub fn row_space_contains(&self, v: &[f64]) -> bool {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let base = self.rank();
        let mut extended = self.clone();
        extended.push_row(v);
        extended.rank() == base
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data
                .swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

/// Solves the square system `A x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` for (numerically) singular systems.
///
/// # Panics
///
/// Panics when `a` is not square or `b.len() != a.rows()`.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows(), a.cols(), "solve requires a square matrix");
    assert_eq!(b.len(), a.rows(), "dimension mismatch");
    let n = a.rows();
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        let mut pivot = col;
        for r in col..n {
            if m.get(r, col).abs() > m.get(pivot, col).abs() {
                pivot = r;
            }
        }
        if m.get(pivot, col).abs() < EPS {
            return None;
        }
        m.swap_rows(col, pivot);
        rhs.swap(col, pivot);
        let pv = m.get(col, col);
        for r in (col + 1)..n {
            let factor = m.get(r, col) / pv;
            if factor != 0.0 {
                for c in col..n {
                    let v = m.get(r, c) - factor * m.get(col, c);
                    m.set(r, c, v);
                }
                rhs[r] -= factor * rhs[col];
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut sum = rhs[r];
        for c in (r + 1)..n {
            sum -= m.get(r, c) * x[c];
        }
        x[r] = sum / m.get(r, r);
    }
    Some(x)
}

/// Minimum-norm solution of the (possibly underdetermined) consistent
/// system `A x = y`: `x = Aᵀ (A Aᵀ)⁺ y`, computed by regularizing
/// `A Aᵀ` with a tiny ridge so rank-deficient systems stay solvable.
///
/// For inconsistent `y` (noise), this returns the least-squares fit within
/// the row space — appropriate for tomographic inference.
///
/// # Panics
///
/// Panics when `y.len() != a.rows()`.
pub fn min_norm_solution(a: &Matrix, y: &[f64]) -> Vec<f64> {
    assert_eq!(y.len(), a.rows(), "dimension mismatch");
    let n = a.rows();
    // Gram matrix G = A Aᵀ + ridge I.
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut dot = 0.0;
            for c in 0..a.cols() {
                dot += a.get(i, c) * a.get(j, c);
            }
            g.set(i, j, dot + if i == j { 1e-9 } else { 0.0 });
        }
    }
    #[expect(clippy::expect_used, reason = "the 1e-9 ridge term on the diagonal keeps the Gram matrix nonsingular")]
    let alpha = solve(&g, y).expect("ridge keeps the Gram matrix nonsingular");
    a.transpose_mul_vec(&alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rank_of_identity_and_dependent_rows() {
        let id = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(id.rank(), 2);
        let dep = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(dep.rank(), 1);
        let zero = Matrix::zeros(3, 3);
        assert_eq!(zero.rank(), 0);
    }

    #[test]
    fn row_space_membership() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![0.0, 1.0, 1.0]]);
        assert!(a.row_space_contains(&[1.0, 2.0, 1.0])); // sum of rows
        assert!(a.row_space_contains(&[1.0, 0.0, -1.0])); // difference
        assert!(!a.row_space_contains(&[1.0, 0.0, 0.0]));
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]), None);
    }

    #[test]
    fn min_norm_reproduces_measurements() {
        // Underdetermined: one equation, two unknowns.
        let a = Matrix::from_rows(&[vec![1.0, 1.0]]);
        let x = min_norm_solution(&a, &[4.0]);
        // Min-norm solution splits evenly.
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
        let y = a.mul_vec(&x);
        assert!((y[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn min_norm_handles_rank_deficient_gram() {
        // Duplicate measurements must not blow up.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let x = min_norm_solution(&a, &[3.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-5);
        assert!(x[1].abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn from_rows_rejects_ragged() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn mul_vec_and_transpose_mul_vec() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.transpose_mul_vec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    proptest! {
        #[test]
        fn solve_inverts_mul(coeffs in proptest::collection::vec(-10.0..10.0f64, 9),
                             x in proptest::collection::vec(-10.0..10.0f64, 3)) {
            let a = Matrix::from_rows(&[
                coeffs[0..3].to_vec(),
                coeffs[3..6].to_vec(),
                coeffs[6..9].to_vec(),
            ]);
            let b = a.mul_vec(&x);
            if let Some(sol) = solve(&a, &b) {
                let back = a.mul_vec(&sol);
                for (bi, yi) in back.iter().zip(&b) {
                    prop_assert!((bi - yi).abs() < 1e-5);
                }
            }
        }

        #[test]
        fn rank_bounded_by_dims(rows in 1usize..6, cols in 1usize..6, seed in 0u64..50) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();
            let m = Matrix::from_rows(&data);
            prop_assert!(m.rank() <= rows.min(cols));
        }
    }
}
