//! Small dense matrices and linear solves.
//!
//! The regression models here involve at most a dozen covariates, so a
//! straightforward row-major dense matrix with Cholesky and
//! partially-pivoted LU solves is both simpler and faster than pulling in a
//! linear-algebra dependency.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error from a linear solve on a singular or non-positive-definite system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrix;

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("matrix is singular (or not positive definite)")
    }
}

impl std::error::Error for SingularMatrix {}

impl Matrix {
    /// Builds a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A single row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect()
    }

    /// `Xᵀ W X` for a diagonal weight vector `w` (the IRLS normal matrix).
    ///
    /// Walks the row-major buffers as slices; every upper-triangle cell adds
    /// its terms in row order, which the IRLS fits' output bits rely on.
    pub fn xtwx(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.rows);
        let p = self.cols;
        let mut out = Matrix::zeros(p, p);
        if p == 0 {
            return out;
        }
        for (row, &wi) in self.data.chunks_exact(p).zip(w) {
            for (a, &xa) in row.iter().enumerate() {
                let wa = wi * xa;
                if wa == 0.0 {
                    continue;
                }
                let upper = &mut out.data[a * p + a..(a + 1) * p];
                for (o, &xb) in upper.iter_mut().zip(&row[a..]) {
                    *o += wa * xb;
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..p {
            for b in (a + 1)..p {
                out[(b, a)] = out[(a, b)];
            }
        }
        out
    }

    /// `Xᵀ W z` for a diagonal weight vector (the IRLS right-hand side).
    pub fn xtwz(&self, w: &[f64], z: &[f64]) -> Vec<f64> {
        assert_eq!(w.len(), self.rows);
        assert_eq!(z.len(), self.rows);
        let p = self.cols;
        let mut out = vec![0.0; p];
        for i in 0..self.rows {
            let wz = w[i] * z[i];
            if wz == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(self.row(i)) {
                *o += x * wz;
            }
        }
        out
    }

    /// Solves `self * x = b` for symmetric positive-definite `self` via
    /// Cholesky decomposition.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
        let l = self.cholesky()?;
        // Forward substitution: L y = b.
        let n = self.rows;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= l[(i, j)] * y[j];
            }
            y[i] = s / l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= l[(j, i)] * x[j];
            }
            x[i] = s / l[(i, i)];
        }
        Ok(x)
    }

    /// Lower-triangular Cholesky factor.
    pub fn cholesky(&self) -> Result<Matrix, SingularMatrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(SingularMatrix);
                    }
                    l[(i, i)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Inverse of a symmetric positive-definite matrix (used for covariance
    /// matrices from Fisher information).
    pub fn inverse_spd(&self) -> Result<Matrix, SingularMatrix> {
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve_spd(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// Solves `self * x = b` for a general square matrix via LU with partial
    /// pivoting (used for numerical-Hessian inverses that may be indefinite).
    #[allow(clippy::needless_range_loop)] // pivot bookkeeping reads clearest with indices
    pub fn solve_lu(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
        assert_eq!(self.rows, self.cols);
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivot.
            let (pivot_row, pivot_val) = (k..n)
                .map(|r| (r, a[perm[r] * n + k].abs()))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .unwrap();
            if pivot_val < 1e-12 {
                return Err(SingularMatrix);
            }
            perm.swap(k, pivot_row);
            let pk = perm[k];
            for r in (k + 1)..n {
                let pr = perm[r];
                let f = a[pr * n + k] / a[pk * n + k];
                a[pr * n + k] = 0.0;
                for c in (k + 1)..n {
                    a[pr * n + c] -= f * a[pk * n + c];
                }
                x[pr] -= f * x[pk];
            }
        }
        // Back substitution.
        let mut out = vec![0.0; n];
        for k in (0..n).rev() {
            let pk = perm[k];
            let mut s = x[pk];
            for c in (k + 1)..n {
                s -= a[pk * n + c] * out[c];
            }
            out[k] = s / a[pk * n + k];
        }
        Ok(out)
    }

    /// General inverse via LU solves.
    pub fn inverse_lu(&self) -> Result<Matrix, SingularMatrix> {
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve_lu(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_solve_recovers_known_solution() {
        // A = [[4,1],[1,3]], x = [1,2], b = A x = [6,7].
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve_spd(&[6.0, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_solve_handles_indefinite() {
        // Indefinite but invertible.
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![3.0, 0.0]]);
        let x = a.solve_lu(&[4.0, 9.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve_lu(&[1.0, 2.0]).is_err());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn inverse_spd_round_trip() {
        let a = Matrix::from_rows(&[vec![5.0, 2.0, 1.0], vec![2.0, 6.0, 2.0], vec![1.0, 2.0, 7.0]]);
        let inv = a.inverse_spd().unwrap();
        // A * A^{-1} = I.
        for i in 0..3 {
            let e: Vec<f64> = (0..3).map(|j| inv[(j, i)]).collect();
            let col = a.mul_vec(&e);
            for (j, v) in col.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10, "A·A⁻¹[{j},{i}] = {v}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn xtwx_matches_indexed_form_bitwise() {
        // The per-cell indexed accumulation xtwx used before it walked
        // slices; zero weights and zero covariates exercise the skip.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let t = f64::from(i);
                vec![1.0, (t * 0.37).sin(), if i % 5 == 0 { 0.0 } else { t.sqrt() }, t * 0.01]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let w: Vec<f64> =
            (0..40).map(|i| if i % 7 == 0 { 0.0 } else { 0.1 + f64::from(i % 9) / 3.0 }).collect();
        let p = x.cols();
        let mut expect = Matrix::zeros(p, p);
        for (i, &wi) in w.iter().enumerate() {
            let row = x.row(i);
            for a in 0..p {
                let wa = wi * row[a];
                if wa == 0.0 {
                    continue;
                }
                for b in a..p {
                    expect[(a, b)] += wa * row[b];
                }
            }
        }
        for a in 0..p {
            for b in (a + 1)..p {
                expect[(b, a)] = expect[(a, b)];
            }
        }
        let got = x.xtwx(&w);
        let bits = |m: &Matrix| m.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
        assert_eq!(Matrix::zeros(3, 0).xtwx(&[1.0, 2.0, 3.0]), Matrix::zeros(0, 0));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn xtwx_matches_naive() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![1.0, -1.0], vec![1.0, 0.5]]);
        let w = vec![1.0, 2.0, 3.0];
        let m = x.xtwx(&w);
        // Naive: sum_i w_i x_i x_iᵀ.
        let mut expect = Matrix::zeros(2, 2);
        for i in 0..3 {
            for a in 0..2 {
                for b in 0..2 {
                    expect[(a, b)] += w[i] * x.row(i)[a] * x.row(i)[b];
                }
            }
        }
        for a in 0..2 {
            for b in 0..2 {
                assert!((m[(a, b)] - expect[(a, b)]).abs() < 1e-12);
            }
        }
    }
}
