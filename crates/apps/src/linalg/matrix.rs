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
        let width = other.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * width..(i + 1) * width];
            for (k, &a) in self.data[i * self.cols..(i + 1) * self.cols]
                .iter()
                .enumerate()
            {
                if a == 0.0 {
                    continue;
                }
                let other_row = &other.data[k * width..(k + 1) * width];
                for (out, &b) in out_row.iter_mut().zip(other_row) {
                    *out += a * b;
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
        // Row-major, each column summed in row order from the value an
        // empty `Iterator::sum` returns: the bits of a per-column `sum()`.
        let mut sums = vec![std::iter::empty::<f64>().sum(); self.cols];
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (sum, x) in sums.iter_mut().zip(row) {
                *sum += x;
            }
        }
        let rows = self.rows as f64;
        sums.iter().map(|sum| sum / rows).collect()
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
        self.covariance_about(&self.column_means())
    }

    /// [`Matrix::covariance`] about the already computed
    /// [`Matrix::column_means`]. Its rank-1 loop is compiled twice, like
    /// the Jacobi sweeps ([`crate::linalg::eigen`]): as plain Rust and, on
    /// x86-64, for AVX2, picked at run time, with the same bits.
    pub(crate) fn covariance_about(&self, means: &[f64]) -> Result<Matrix, AppError> {
        self.covariance_with(means, dispatched_rank1_updates)
    }

    /// [`Matrix::covariance_about`] with the rank-1 loop given.
    fn covariance_with(
        &self,
        means: &[f64],
        rank1_updates: fn(&[f64], usize, &[f64], &mut [f64]),
    ) -> Result<Matrix, AppError> {
        if self.rows == 0 {
            return Err(AppError::DimensionMismatch {
                reason: "covariance of an empty matrix".to_owned(),
            });
        }
        let n = self.cols;
        let mut cov = Matrix::zeros(n, n);
        rank1_updates(&self.data, n, means, &mut cov.data);
        let rows = self.rows as f64;
        for i in 0..n {
            for j in i..n {
                let value = cov.data[i * n + j] / rows;
                cov.data[i * n + j] = value;
                cov.data[j * n + i] = value;
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

/// The rank-1 loop a [`Matrix::covariance_about`] call runs: the AVX2
/// copy when the CPU has AVX2, the plain one otherwise.
fn dispatched_rank1_updates(data: &[f64], n: usize, means: &[f64], upper: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `rank1_updates_avx2` needs AVX2, and
        // `is_x86_feature_detected!` just found it on the running CPU.
        #[allow(unsafe_code)]
        return unsafe { rank1_updates_avx2(data, n, means, upper) };
    }
    rank1_updates(data, n, means, upper);
}

/// [`rank1_updates`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rank1_updates_avx2(data: &[f64], n: usize, means: &[f64], upper: &mut [f64]) {
    rank1_updates(data, n, means, upper);
}

/// Adds the outer product of every centred row of the row-major `n`-column
/// `data` to the upper triangle of the zeroed `n × n` matrix `upper`, one
/// row at a time: entry (i, j) sums its products in row order from 0.0, and
/// the inner loop runs over contiguous `j`.
#[inline(always)]
fn rank1_updates(data: &[f64], n: usize, means: &[f64], upper: &mut [f64]) {
    let mut centred = vec![0.0; n];
    for row in data.chunks_exact(n.max(1)) {
        for ((c, x), mean) in centred.iter_mut().zip(row).zip(means) {
            *c = x - mean;
        }
        for (i, &xi) in centred.iter().enumerate() {
            let acc = &mut upper[i * n + i..(i + 1) * n];
            for (acc, &xj) in acc.iter_mut().zip(&centred[i..]) {
                *acc += xi * xj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::test_inputs::{fig7_pca_training_matrix, random_matrix};

    /// Holds [`Matrix::covariance`] (the AVX2 copy on a CPU that has it) to
    /// the rank-1 body called directly, which this call site compiles
    /// without AVX2: the same bits, or the same error.
    fn assert_dispatch_matches_body(m: &Matrix) {
        let body = m.covariance_with(&m.column_means(), rank1_updates);
        match (m.covariance(), body) {
            (Ok(dispatched), Ok(body)) => {
                let bits =
                    |c: &Matrix| c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dispatched), bits(&body));
            }
            (dispatched, body) => assert_eq!(dispatched, body),
        }
    }

    #[test]
    fn dispatched_rank1_updates_are_bit_identical_to_the_body() {
        assert_dispatch_matches_body(&Matrix::zeros(0, 0));
        assert_dispatch_matches_body(&Matrix::from_rows(&[vec![3.5]]).unwrap());
        assert_dispatch_matches_body(&fig7_pca_training_matrix());
        // Odd widths leave a tail after every vector width.
        for cols in (3..=41).step_by(2) {
            assert_dispatch_matches_body(&random_matrix(2 * cols + 1, cols, cols as u64));
        }
    }

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
