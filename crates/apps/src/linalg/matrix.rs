//! Row-major dense matrix of `f64` values.

use crate::error::AppError;

/// A row-major dense matrix.
///
/// # Example
///
/// ```
/// use faultmit_apps::Matrix;
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let product = a.matmul(&b)?;
/// assert_eq!(product.get(1, 0), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when rows have unequal lengths
    /// or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, AppError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(AppError::DimensionMismatch {
                reason: "matrix must have at least one row and one column".to_owned(),
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(AppError::DimensionMismatch {
                reason: "all rows must have the same length".to_owned(),
            });
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when `data.len() != rows·cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, AppError> {
        if data.len() != rows * cols {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "expected {} elements for a {rows}x{cols} matrix, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// A copy of row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    #[must_use]
    pub fn row(&self, row: usize) -> Vec<f64> {
        assert!(row < self.rows, "row out of range");
        self.data[row * self.cols..(row + 1) * self.cols].to_vec()
    }

    /// A copy of column `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of range.
    #[must_use]
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column out of range");
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// The underlying row-major data slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, AppError> {
        if self.cols != other.rows {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "cannot multiply {}x{} by {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, AppError> {
        if v.len() != self.cols {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "cannot multiply {}x{} by a vector of length {}",
                    self.rows,
                    self.cols,
                    v.len()
                ),
            });
        }
        Ok((0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * v[c]).sum::<f64>())
            .collect())
    }

    /// Per-column means.
    #[must_use]
    pub fn column_means(&self) -> Vec<f64> {
        (0..self.cols)
            .map(|c| self.column(c).iter().sum::<f64>() / self.rows as f64)
            .collect()
    }

    /// Per-column population standard deviations.
    #[must_use]
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        (0..self.cols)
            .map(|c| {
                let var = self
                    .column(c)
                    .iter()
                    .map(|v| (v - means[c]).powi(2))
                    .sum::<f64>()
                    / self.rows as f64;
                var.sqrt()
            })
            .collect()
    }

    /// Covariance matrix of the columns (population covariance of the
    /// mean-centred data).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] for an empty matrix.
    pub fn covariance(&self) -> Result<Matrix, AppError> {
        if self.rows == 0 {
            return Err(AppError::DimensionMismatch {
                reason: "covariance of an empty matrix".to_owned(),
            });
        }
        // Centre each column into a contiguous slice, so every pairwise sum
        // below runs over unit-stride memory.
        let centred: Vec<f64> = self
            .column_means()
            .into_iter()
            .enumerate()
            .flat_map(|(c, mean)| {
                self.data
                    .iter()
                    .skip(c)
                    .step_by(self.cols)
                    .map(move |v| v - mean)
            })
            .collect();
        let columns: Vec<&[f64]> = centred.chunks_exact(self.rows).collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut acc = 0.0;
                for (x, y) in columns[i].iter().zip(columns[j]) {
                    acc += x * y;
                }
                let value = acc / self.rows as f64;
                cov.data[i * self.cols + j] = value;
                cov.data[j * self.cols + i] = value;
            }
        }
        Ok(cov)
    }

    /// Selects a subset of rows (by index) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (new_row, &old_row) in indices.iter().enumerate() {
            for c in 0..self.cols {
                out.set(new_row, c, self.get(old_row, c));
            }
        }
        out
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `true` when every element differs from `other` by at most `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn invalid_construction_is_rejected() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![]]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn set_and_mutate() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        m.as_mut_slice()[0] = 7.0;
        assert_eq!(m.get(0, 0), 7.0);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_out_of_range_panics() {
        let _ = sample().get(2, 0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let product = a.matmul(&b).unwrap(); // 2x2
        assert_eq!(product.get(0, 0), 4.0);
        assert_eq!(product.get(0, 1), 5.0);
        assert_eq!(product.get(1, 0), 10.0);
        assert_eq!(product.get(1, 1), 11.0);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = sample();
        let id = Matrix::identity(3);
        assert!(a.matmul(&id).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, 2.0, 3.0];
        let result = a.matvec(&v).unwrap();
        assert_eq!(result, vec![14.0, 32.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn column_statistics() {
        let m = sample();
        assert_eq!(m.column_means(), vec![2.5, 3.5, 4.5]);
        let stds = m.column_stds();
        for s in stds {
            assert!((s - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let cov = m.covariance().unwrap();
        // var(x) = 2/3, var(y) = 8/3, cov = 4/3.
        assert!((cov.get(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 8.0 / 3.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 4.0 / 3.0).abs() < 1e-12);
        assert!((cov.get(1, 0) - cov.get(0, 1)).abs() < 1e-15);
    }

    #[test]
    fn select_rows_and_norm() {
        let m = sample();
        let sub = m.select_rows(&[1]);
        assert_eq!(sub.rows(), 1);
        assert_eq!(sub.row(0), vec![4.0, 5.0, 6.0]);
        let norm = Matrix::from_rows(&[vec![3.0, 4.0]])
            .unwrap()
            .frobenius_norm();
        assert!((norm - 5.0).abs() < 1e-12);
    }

    #[test]
    fn approx_eq_tolerates_small_differences() {
        let a = sample();
        let mut b = sample();
        b.set(0, 0, 1.0 + 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        assert!(!a.approx_eq(&Matrix::zeros(2, 2), 1.0));
    }
}
