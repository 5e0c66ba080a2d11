//! Jacobi eigen-decomposition for symmetric matrices.
//!
//! PCA needs the eigenvalues and eigenvectors of a covariance matrix. The
//! cyclic Jacobi method is simple, numerically robust for the small feature
//! dimensionalities of the paper's datasets (≤ 500), and requires no external
//! dependencies.
//!
//! The sweeps are most of a PCA fit, so their loop is compiled twice: as
//! plain Rust and, on x86-64, for AVX2, which [`jacobi_eigen`] picks at run
//! time when the CPU has it. Only element-wise loops get wider (no fused
//! multiply-add, no reassociated sum), so both copies round every operation
//! alike and return the same bits.

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
    eigen_with(matrix, max_sweeps, dispatched_sweeps)
}

/// The sweep loop a [`jacobi_eigen`] call runs: the AVX2 copy when the CPU
/// has AVX2, the plain one otherwise.
fn dispatched_sweeps(
    a: &mut [f64],
    vt: &mut [f64],
    n: usize,
    tolerance: f64,
    max_sweeps: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `jacobi_sweeps_avx2` needs AVX2, and
        // `is_x86_feature_detected!` just found it on the running CPU.
        #[allow(unsafe_code)]
        return unsafe { jacobi_sweeps_avx2(a, vt, n, tolerance, max_sweeps) };
    }
    jacobi_sweeps(a, vt, n, tolerance, max_sweeps)
}

/// [`jacobi_sweeps`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn jacobi_sweeps_avx2(
    a: &mut [f64],
    vt: &mut [f64],
    n: usize,
    tolerance: f64,
    max_sweeps: usize,
) -> bool {
    jacobi_sweeps(a, vt, n, tolerance, max_sweeps)
}

/// Validates `matrix`, runs `sweeps` on it and orders the eigenpairs:
/// [`jacobi_eigen`] with the sweep loop given.
fn eigen_with(
    matrix: &Matrix,
    max_sweeps: usize,
    sweeps: fn(&mut [f64], &mut [f64], usize, f64, usize) -> bool,
) -> Result<EigenDecomposition, AppError> {
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
    // Vᵀ, the eigenvector columns stored as rows: V·J rotates columns p and
    // q of V, which are the contiguous rows p and q of Vᵀ.
    let mut vt = Matrix::identity(n);
    let tolerance = 1e-12 * scale;
    let converged = sweeps(a.as_mut_slice(), vt.as_mut_slice(), n, tolerance, max_sweeps)
        // Final convergence check after the sweep budget.
        || off_diagonal_norm(a.as_slice(), n) < tolerance.max(1e-9 * scale);
    if converged {
        Ok(sort_descending(a, vt, n))
    } else {
        Err(AppError::DidNotConverge {
            routine: "jacobi eigen-decomposition".to_owned(),
            iterations: max_sweeps,
        })
    }
}

/// Runs up to `max_sweeps` cyclic sweeps on the row-major `n × n` matrix
/// `a`, accumulating the rotations into `vt` (Vᵀ); `true` once a sweep
/// starts with the off-diagonal norm below `tolerance`.
#[inline(always)]
fn jacobi_sweeps(
    a: &mut [f64],
    vt: &mut [f64],
    n: usize,
    tolerance: f64,
    max_sweeps: usize,
) -> bool {
    for _sweep in 0..max_sweeps {
        if off_diagonal_norm(a, n) < tolerance {
            return true;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < tolerance / (n as f64) {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // A = Jᵀ·A·J: columns p and q first, then rows p and q of
                // the updated matrix; V accumulates the column rotations,
                // element for element as rows of Vᵀ.
                rotate_columns(a, n, p, q, c, s);
                rotate_rows(a, n, p, q, c, s);
                rotate_rows(vt, n, p, q, c, s);
            }
        }
    }
    false
}

/// Frobenius norm of the strict upper triangle of a row-major `n × n`
/// matrix, summed row by row.
#[inline(always)]
fn off_diagonal_norm(a: &[f64], n: usize) -> f64 {
    // `max(1)` keeps the chunk size valid for the empty 0×0 matrix.
    a.chunks_exact(n.max(1))
        .enumerate()
        .flat_map(|(i, row)| &row[i + 1..])
        .map(|x| x.powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Rotates columns `p` and `q` of a row-major `n`-column matrix by the
/// Jacobi rotation `(c, s)`.
#[inline(always)]
fn rotate_columns(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in data.chunks_exact_mut(n) {
        let (xp, xq) = (row[p], row[q]);
        row[p] = c * xp - s * xq;
        row[q] = s * xp + c * xq;
    }
}

/// Rotates rows `p < q` of a row-major `n`-column matrix by the Jacobi
/// rotation `(c, s)`.
#[inline(always)]
fn rotate_rows(data: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = data.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    for (xp, xq) in row_p.iter_mut().zip(&mut tail[..n]) {
        let (pk, qk) = (*xp, *xq);
        *xp = c * pk - s * qk;
        *xq = s * pk + c * qk;
    }
}

/// Orders the eigenpairs by descending eigenvalue; `vt` holds the
/// eigenvectors as rows.
fn sort_descending(a: Matrix, vt: Matrix, n: usize) -> EigenDecomposition {
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
            vectors.set(row, new_col, vt.get(old_col, row));
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::test_inputs::{fig7_pca_training_matrix, random_matrix};

    /// Holds [`jacobi_eigen`] (the AVX2 copy on a CPU that has it) to the
    /// sweep body called directly, which this call site compiles without
    /// AVX2: the same values and vectors bit for bit, or the same error.
    fn assert_dispatch_matches_body(m: &Matrix, max_sweeps: usize) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (
            jacobi_eigen(m, max_sweeps),
            eigen_with(m, max_sweeps, jacobi_sweeps),
        ) {
            (Ok(dispatched), Ok(body)) => {
                assert_eq!(bits(&dispatched.values), bits(&body.values));
                assert_eq!(
                    bits(dispatched.vectors.as_slice()),
                    bits(body.vectors.as_slice())
                );
            }
            (dispatched, body) => assert_eq!(dispatched, body),
        }
    }

    #[test]
    fn dispatched_sweeps_are_bit_identical_to_the_body() {
        assert_dispatch_matches_body(&Matrix::zeros(0, 0), 200);
        assert_dispatch_matches_body(&Matrix::from_rows(&[vec![3.5]]).unwrap(), 200);
        let mut diagonal = Matrix::zeros(7, 7);
        for i in 0..7 {
            diagonal.set(i, i, (i * i) as f64 - 4.0);
        }
        assert_dispatch_matches_body(&diagonal, 200);
        let covariance = fig7_pca_training_matrix().covariance().unwrap();
        assert_eq!((covariance.rows(), covariance.cols()), (40, 40));
        assert_dispatch_matches_body(&covariance, 200);
        // Odd sizes leave a tail after every vector width.
        for n in (3..=41).step_by(2) {
            let m = random_matrix(n, n, n as u64);
            let symmetric = m.matmul(&m.transpose()).unwrap();
            assert_dispatch_matches_body(&symmetric, 200);
        }
        // A zero budget takes the `DidNotConverge` path.
        let budgetless = jacobi_eigen(&covariance, 0);
        assert!(matches!(budgetless, Err(AppError::DidNotConverge { .. })));
        assert_dispatch_matches_body(&covariance, 0);
    }

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
