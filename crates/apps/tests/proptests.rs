//! Randomized property tests of the application substrates: fixed-point
//! quantisation, linear algebra and metrics, plus bit-for-bit pins of the
//! numerical kernels against straightforward element-by-element versions.
//!
//! The offline build has no `proptest`, so each property is exercised over a
//! seeded random sweep.

use faultmit_apps::linalg::{jacobi_eigen, Matrix};
use faultmit_apps::metrics::{accuracy_score, explained_variance_score, r2_score};
use faultmit_apps::preprocessing::Standardizer;
use faultmit_apps::{ElasticNet, FixedPointFormat, KnnClassifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Fixed-point round trips are accurate to half an LSB inside the
/// representable range.
#[test]
fn fixed_point_round_trip_within_half_lsb() {
    let mut rng = rng(401);
    let fmt = FixedPointFormat::q15_16();
    for _ in 0..CASES {
        let value = rng.gen_range(-30_000.0f64..30_000.0);
        let decoded = fmt.decode(fmt.encode(value));
        assert!((decoded - value).abs() <= fmt.resolution() / 2.0 + 1e-12);
    }
}

/// Out-of-range values saturate instead of wrapping around.
#[test]
fn fixed_point_saturates() {
    let mut rng = rng(402);
    let fmt = FixedPointFormat::q15_16();
    for _ in 0..CASES {
        // Mix in-range magnitudes with far-out-of-range ones.
        let magnitude = 10f64.powf(rng.gen_range(-3.0f64..12.0));
        let value = if rng.gen::<bool>() {
            magnitude
        } else {
            -magnitude
        };
        let decoded = fmt.decode(fmt.encode(value));
        assert!(decoded <= fmt.max_value() + 1e-9);
        assert!(decoded >= fmt.min_value() - 1e-9);
        // The sign is preserved for values of non-trivial magnitude.
        if value.abs() > fmt.resolution() {
            assert_eq!(decoded.signum(), value.signum());
        }
    }
}

/// Flipping the MSB of the stored word always produces a large error —
/// the significance asymmetry that motivates bit shuffling.
#[test]
fn msb_flips_dominate_lsb_flips() {
    let mut rng = rng(403);
    let fmt = FixedPointFormat::q15_16();
    for _ in 0..CASES {
        let value = rng.gen_range(-20_000.0f64..20_000.0);
        let word = fmt.encode(value);
        let msb_error = (fmt.decode(word ^ (1 << 31)) - fmt.decode(word)).abs();
        let lsb_error = (fmt.decode(word ^ 1) - fmt.decode(word)).abs();
        assert!(msb_error > 30_000.0);
        assert!(lsb_error <= fmt.resolution() + 1e-12);
    }
}

/// Transposition is an involution and preserves the Frobenius norm.
#[test]
fn transpose_is_an_involution() {
    let mut rng = rng(404);
    for _ in 0..64 {
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..6);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(-10.0f64..10.0))
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let t = m.transpose();
        assert!(t.transpose().approx_eq(&m, 0.0));
        assert!((t.frobenius_norm() - m.frobenius_norm()).abs() < 1e-9);
    }
}

/// The covariance matrix is symmetric positive semi-definite: the Jacobi
/// eigenvalues are all non-negative (up to rounding).
#[test]
fn covariance_is_positive_semidefinite() {
    let mut rng = rng(405);
    for _ in 0..64 {
        let rows = rng.gen_range(3usize..10);
        let cols = rng.gen_range(2usize..5);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(0.0f64..10.0))
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let cov = m.covariance().unwrap();
        let eigen = jacobi_eigen(&cov, 200).unwrap();
        for &value in &eigen.values {
            assert!(value >= -1e-8, "negative eigenvalue {value}");
        }
    }
}

/// R² of a perfect prediction is 1; accuracy of identical labels is 1.
#[test]
fn perfect_predictions_score_one() {
    let mut rng = rng(406);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..20);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        assert!((r2_score(&values, &values).unwrap() - 1.0).abs() < 1e-9);
        assert!((explained_variance_score(&values, &values).unwrap() - 1.0).abs() < 1e-9);
        let labels: Vec<usize> = values.iter().map(|v| (v.abs() as usize) % 5).collect();
        assert_eq!(accuracy_score(&labels, &labels).unwrap(), 1.0);
    }
}

/// R² never exceeds 1 for any prediction.
#[test]
fn r2_is_at_most_one() {
    let mut rng = rng(407);
    for _ in 0..CASES {
        let n = rng.gen_range(3usize..15);
        let truth: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        let predicted: Vec<f64> = truth
            .iter()
            .map(|t| t + rng.gen_range(-50.0f64..50.0))
            .collect();
        let r2 = r2_score(&truth, &predicted).unwrap();
        assert!(r2 <= 1.0 + 1e-12);
    }
}

/// Standardised data has zero column means for any input.
#[test]
fn standardizer_centres_every_column() {
    let mut rng = rng(408);
    for _ in 0..CASES {
        let rows = rng.gen_range(2usize..10);
        let cols = rng.gen_range(1usize..5);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.gen_range(-100.0f64..100.0))
            .collect();
        let m = Matrix::from_vec(rows, cols, data).unwrap();
        let scaled = Standardizer::fit(&m).transform(&m).unwrap();
        for mean in scaled.column_means() {
            assert!(mean.abs() < 1e-9, "column mean {mean}");
        }
    }
}

/// A seeded `rows × n` data matrix shaped like a training matrix after a
/// faulty read-back: standardised-scale values, one constant column, and a
/// few rows whose other entries came back with the MSB of their Q15.16
/// word flipped.
fn corrupted_data(rng: &mut StdRng, rows: usize, n: usize) -> Matrix {
    let fmt = FixedPointFormat::q15_16();
    let constant = rng.gen_range(0..n);
    let data = (0..rows * n)
        .map(|k| {
            if k % n == constant {
                1.5
            } else {
                rng.gen_range(-3.0f64..3.0)
            }
        })
        .collect();
    let mut m = Matrix::from_vec(rows, n, data).unwrap();
    for _ in 0..2 {
        let row = rng.gen_range(0..rows);
        for col in (0..n).filter(|&col| col != constant) {
            let word = fmt.encode(m.get(row, col)) ^ (1 << 31);
            m.set(row, col, fmt.decode(word));
        }
    }
    m
}

/// A seeded symmetric matrix with one all-zero row and column.
fn symmetric(rng: &mut StdRng, n: usize) -> Matrix {
    let zero = rng.gen_range(0..n);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            if i != zero && j != zero {
                let value = rng.gen_range(-10.0f64..10.0);
                m.set(i, j, value);
                m.set(j, i, value);
            }
        }
    }
    m
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Element-by-element covariance: the reference for `Matrix::covariance`.
fn covariance_reference(x: &Matrix) -> Matrix {
    let means = x.column_means();
    let mut cov = Matrix::zeros(x.cols(), x.cols());
    for i in 0..x.cols() {
        for j in i..x.cols() {
            let mut acc = 0.0;
            for r in 0..x.rows() {
                acc += (x.get(r, i) - means[i]) * (x.get(r, j) - means[j]);
            }
            let value = acc / x.rows() as f64;
            cov.set(i, j, value);
            cov.set(j, i, value);
        }
    }
    cov
}

fn off_diagonal_reference(a: &Matrix) -> f64 {
    let n = a.rows();
    (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| a.get(i, j).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Element-by-element cyclic Jacobi: the reference for `jacobi_eigen`.
/// Returns the descending eigenvalues and the matching eigenvector columns,
/// or `None` when the sweep budget runs out.
fn jacobi_reference(matrix: &Matrix, max_sweeps: usize) -> Option<(Vec<f64>, Matrix)> {
    let n = matrix.rows();
    let scale = matrix.frobenius_norm().max(1.0);
    let tolerance = 1e-12 * scale;
    let mut a = matrix.clone();
    let mut v = Matrix::identity(n);
    let mut converged = false;
    for _ in 0..max_sweeps {
        if off_diagonal_reference(&a) < tolerance {
            converged = true;
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < tolerance / (n as f64) {
                    continue;
                }
                let theta = 0.5 * (a.get(q, q) - a.get(p, p)) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (akp, akq) = (a.get(k, p), a.get(k, q));
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let (apk, aqk) = (a.get(p, k), a.get(q, k));
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let (vkp, vkq) = (v.get(k, p), v.get(k, q));
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    if !converged && off_diagonal_reference(&a) >= tolerance.max(1e-9 * scale) {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a.get(j, j).partial_cmp(&a.get(i, i)).unwrap());
    let values = order.iter().map(|&i| a.get(i, i)).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors.set(row, new_col, v.get(row, old_col));
        }
    }
    Some((values, vectors))
}

/// Element-by-element coordinate descent with `ElasticNet::paper_default`'s
/// settings: the reference for `ElasticNet::fit`. Returns the weights and
/// the intercept.
fn elastic_net_reference(x: &Matrix, y: &[f64]) -> (Vec<f64>, f64) {
    let (alpha, l1_ratio, max_iterations, tolerance) = (0.01, 0.5, 1000, 1e-6);
    let (n, p) = (x.rows(), x.cols());
    let n_f = n as f64;
    let y_mean = y.iter().sum::<f64>() / n_f;
    let x_means = x.column_means();
    let mut xc = x.clone();
    for r in 0..n {
        for (c, &mean) in x_means.iter().enumerate() {
            xc.set(r, c, x.get(r, c) - mean);
        }
    }
    let col_sq: Vec<f64> = (0..p)
        .map(|c| xc.column(c).iter().map(|v| v * v).sum::<f64>() / n_f)
        .collect();
    let (l1, l2) = (alpha * l1_ratio, alpha * (1.0 - l1_ratio));
    let soft_threshold = |value: f64| {
        if value > l1 {
            value - l1
        } else if value < -l1 {
            value + l1
        } else {
            0.0
        }
    };
    let mut weights = vec![0.0; p];
    let mut residual: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    for _ in 0..max_iterations {
        let mut max_change = 0.0_f64;
        for j in 0..p {
            if col_sq[j] <= 1e-18 {
                continue;
            }
            let old = weights[j];
            let mut rho = 0.0;
            for (i, &res) in residual.iter().enumerate() {
                rho += xc.get(i, j) * (res + xc.get(i, j) * old);
            }
            rho /= n_f;
            let new = soft_threshold(rho) / (col_sq[j] + l2);
            if (new - old).abs() > 0.0 {
                for (i, res) in residual.iter_mut().enumerate() {
                    *res += xc.get(i, j) * (old - new);
                }
            }
            weights[j] = new;
            max_change = max_change.max((new - old).abs());
        }
        if max_change < tolerance {
            break;
        }
    }
    let intercept = y_mean
        - weights
            .iter()
            .zip(&x_means)
            .map(|(w, m)| w * m)
            .sum::<f64>();
    (weights, intercept)
}

/// Majority vote over a full stable sort by distance: the reference for
/// `KnnClassifier::predict`.
fn knn_reference(train: &Matrix, labels: &[usize], k: usize, query: &[f64]) -> usize {
    let mut distances: Vec<(f64, usize)> = (0..train.rows())
        .map(|i| {
            let mut d = 0.0;
            for (c, &q) in query.iter().enumerate() {
                let diff = train.get(i, c) - q;
                d += diff * diff;
            }
            (d, labels[i])
        })
        .collect();
    distances.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut counts = std::collections::BTreeMap::new();
    for &(_, label) in distances.iter().take(k) {
        *counts.entry(label).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(label, _)| label)
        .unwrap()
}

const KERNEL_SIZES: [usize; 3] = [2, 5, 40];

/// `Matrix::covariance` is bit-identical to the element-by-element loop.
#[test]
fn covariance_matches_the_elementwise_reference_bit_for_bit() {
    let mut rng = rng(409);
    for n in KERNEL_SIZES {
        for _ in 0..6 {
            let x = corrupted_data(&mut rng, 3 * n + 7, n);
            let cov = x.covariance().unwrap();
            assert_eq!(
                bits(cov.as_slice()),
                bits(covariance_reference(&x).as_slice()),
                "n = {n}"
            );
        }
    }
}

/// `jacobi_eigen` is bit-identical to the element-by-element rotations, on
/// covariances of corrupted data and on plain symmetric matrices.
#[test]
fn jacobi_eigen_matches_the_elementwise_reference_bit_for_bit() {
    let mut rng = rng(410);
    for n in KERNEL_SIZES {
        for case in 0..6 {
            let m = if case % 2 == 0 {
                corrupted_data(&mut rng, 3 * n + 7, n).covariance().unwrap()
            } else {
                symmetric(&mut rng, n)
            };
            for max_sweeps in [1, 200] {
                let expected = jacobi_reference(&m, max_sweeps);
                match jacobi_eigen(&m, max_sweeps) {
                    Ok(eigen) => {
                        let (values, vectors) = expected.expect("the reference converged too");
                        assert_eq!(bits(&eigen.values), bits(&values), "n = {n}");
                        assert_eq!(
                            bits(eigen.vectors.as_slice()),
                            bits(vectors.as_slice()),
                            "n = {n}"
                        );
                    }
                    Err(_) => assert!(expected.is_none(), "n = {n}: only the kernel failed"),
                }
            }
        }
    }
}

/// `ElasticNet::fit` is bit-identical to element-by-element coordinate
/// descent.
#[test]
fn elastic_net_fit_matches_the_elementwise_reference_bit_for_bit() {
    let mut rng = rng(411);
    for n in KERNEL_SIZES {
        for _ in 0..6 {
            let rows = 3 * n + 7;
            let x = corrupted_data(&mut rng, rows, n);
            let coefficients: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0f64..2.0)).collect();
            let y: Vec<f64> = (0..rows)
                .map(|r| {
                    let signal: f64 = (0..n).map(|c| x.get(r, c) * coefficients[c]).sum();
                    signal + rng.gen_range(-0.5f64..0.5)
                })
                .collect();
            let mut model = ElasticNet::paper_default().unwrap();
            model.fit(&x, &y).unwrap();
            let (weights, intercept) = elastic_net_reference(&x, &y);
            assert_eq!(bits(model.weights().unwrap()), bits(&weights), "n = {n}");
            assert_eq!(model.intercept().to_bits(), intercept.to_bits(), "n = {n}");
        }
    }
}

/// KNN predictions equal a majority vote over a full stable sort, on
/// integer-valued data where equal distances straddle the k boundary.
#[test]
fn knn_predictions_match_the_stable_sort_reference() {
    let mut rng = rng(412);
    for _ in 0..64 {
        let (rows, cols) = (rng.gen_range(5usize..40), rng.gen_range(1usize..4));
        let k = rng.gen_range(1..=5.min(rows));
        let grid = |rng: &mut StdRng| f64::from(rng.gen_range(-2i32..=2));
        let train_data = (0..rows * cols).map(|_| grid(&mut rng)).collect();
        let train = Matrix::from_vec(rows, cols, train_data).unwrap();
        let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0usize..3)).collect();
        let test_data = (0..8 * cols).map(|_| grid(&mut rng)).collect();
        let test = Matrix::from_vec(8, cols, test_data).unwrap();
        let mut knn = KnnClassifier::new(k).unwrap();
        knn.fit(&train, &labels).unwrap();
        let expected: Vec<usize> = (0..test.rows())
            .map(|r| knn_reference(&train, &labels, k, &test.row(r)))
            .collect();
        assert_eq!(knn.predict(&test).unwrap(), expected, "k = {k}");
    }
}
