//! Jacobi eigen-decomposition for symmetric matrices.
//!
//! PCA needs the eigenvalues and eigenvectors of a covariance matrix. The
//! cyclic Jacobi method is simple, numerically robust for the small feature
//! dimensionalities of the paper's datasets (≤ 500), and requires no external
//! dependencies.

use crate::error::AppError;
use crate::linalg::matrix::Matrix;

/// Eigenvalues and eigenvectors of a symmetric matrix, sorted by descending
/// eigenvalue.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f64>,
    /// Matrix whose columns are the corresponding (unit-norm) eigenvectors.
    pub vectors: Matrix,
}

/// Computes the eigen-decomposition of a symmetric matrix using the cyclic
/// Jacobi rotation method.
///
/// # Errors
///
/// Returns [`AppError::DimensionMismatch`] when the matrix is not square,
/// [`AppError::InvalidParameter`] when it is not (approximately) symmetric,
/// or [`AppError::DidNotConverge`] when the off-diagonal norm does not drop
/// below tolerance within the sweep budget.
///
/// # Example
///
/// ```
/// use faultmit_apps::linalg::{jacobi_eigen, Matrix};
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let eigen = jacobi_eigen(&m, 100)?;
/// assert!((eigen.values[0] - 3.0).abs() < 1e-9);
/// assert!((eigen.values[1] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn jacobi_eigen(matrix: &Matrix, max_sweeps: usize) -> Result<EigenDecomposition, AppError> {
    let n = matrix.rows();
    if matrix.cols() != n {
        return Err(AppError::DimensionMismatch {
            reason: format!(
                "eigen-decomposition needs a square matrix, got {}x{}",
                matrix.rows(),
                matrix.cols()
            ),
        });
    }
    let scale = matrix.frobenius_norm().max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (matrix.get(i, j) - matrix.get(j, i)).abs() > 1e-8 * scale {
                return Err(AppError::InvalidParameter {
                    reason: format!("matrix is not symmetric at ({i}, {j})"),
                });
            }
        }
    }

    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);
    let tolerance = 1e-12 * scale;

    for _sweep in 0..max_sweeps {
        if off_diagonal_norm(&a) < tolerance {
            return Ok(sort_descending(a, v, n));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < tolerance / (n as f64) {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // A = Jᵀ·A·J: columns p and q first, then rows p and q of
                // the updated matrix; V accumulates the column rotations.
                rotate_columns(a.as_mut_slice(), n, p, q, c, s);
                rotate_rows(a.as_mut_slice(), n, p, q, c, s);
                rotate_columns(v.as_mut_slice(), n, p, q, c, s);
            }
        }
    }

    // Final convergence check after the sweep budget.
    if off_diagonal_norm(&a) < tolerance.max(1e-9 * scale) {
        Ok(sort_descending(a, v, n))
    } else {
        Err(AppError::DidNotConverge {
            routine: "jacobi eigen-decomposition".to_owned(),
            iterations: max_sweeps,
        })
    }
}

/// Frobenius norm of the strict upper triangle of a square matrix, summed
/// row by row.
fn off_diagonal_norm(a: &Matrix) -> f64 {
    // `max(1)` keeps the chunk size valid for the empty 0×0 matrix.
    a.as_slice()
        .chunks_exact(a.cols().max(1))
        .enumerate()
        .flat_map(|(i, row)| &row[i + 1..])
        .map(|x| x.powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Rotates columns `p` and `q` of a row-major `n`-column matrix by the
/// Jacobi rotation `(c, s)`.
fn rotate_columns(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in data.chunks_exact_mut(n) {
        let (xp, xq) = (row[p], row[q]);
        row[p] = c * xp - s * xq;
        row[q] = s * xp + c * xq;
    }
}

/// Rotates rows `p < q` of a row-major `n`-column matrix by the Jacobi
/// rotation `(c, s)`.
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    for (xp, xq) in row_p.iter_mut().zip(&mut tail[..n]) {
        let (pk, qk) = (*xp, *xq);
        *xp = c * pk - s * qk;
        *xq = s * pk + c * qk;
    }
}

fn sort_descending(a: Matrix, v: Matrix, n: usize) -> EigenDecomposition {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a.get(j, j)
            .partial_cmp(&a.get(i, i))
            .expect("eigenvalues are finite")
    });
    let values = order.iter().map(|&i| a.get(i, i)).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors.set(row, new_col, v.get(row, old_col));
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 5.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&m, 50).unwrap();
        assert_eq!(eig.values.len(), 3);
        assert!((eig.values[0] - 5.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
        assert!((eig.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_decomposition() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = jacobi_eigen(&m, 50).unwrap();
        assert!((eig.values[0] - 3.0).abs() < 1e-10);
        assert!((eig.values[1] - 1.0).abs() < 1e-10);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = eig.vectors.column(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-8);
        assert!((v0[0] - v0[1]).abs() < 1e-8);
    }

    #[test]
    fn reconstruction_property_holds() {
        // A = V Λ Vᵀ for a random-ish symmetric matrix.
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.5],
            vec![2.0, 0.0, 5.0, 1.0],
            vec![0.5, 1.5, 1.0, 2.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&m, 100).unwrap();
        let mut lambda = Matrix::zeros(4, 4);
        for (i, &value) in eig.values.iter().enumerate() {
            lambda.set(i, i, value);
        }
        let reconstructed = eig
            .vectors
            .matmul(&lambda)
            .unwrap()
            .matmul(&eig.vectors.transpose())
            .unwrap();
        assert!(reconstructed.approx_eq(&m, 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 3.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&m, 100).unwrap();
        let vtv = eig.vectors.transpose().matmul(&eig.vectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-9));
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let m = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
        .unwrap();
        let eig = jacobi_eigen(&m, 100).unwrap();
        let trace = 6.0;
        let sum: f64 = eig.values.iter().sum();
        assert!((sum - trace).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_square_and_non_symmetric_inputs() {
        let rect = Matrix::zeros(2, 3);
        assert!(jacobi_eigen(&rect, 10).is_err());
        let asym = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!(jacobi_eigen(&asym, 10).is_err());
    }

    #[test]
    fn zero_sweep_budget_fails_to_converge_for_nontrivial_input() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            jacobi_eigen(&m, 0),
            Err(AppError::DidNotConverge { .. })
        ));
    }
}
