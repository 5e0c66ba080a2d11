//! Elasticnet regression (coordinate descent).
//!
//! The paper's regression benchmark (Table 1): an elastic-net model fitted on
//! the wine-quality dataset, evaluated with R². The combined L1/L2 penalty is
//!
//! ```text
//!   (1/2n)·‖y − Xw − b‖² + α·ρ·‖w‖₁ + (α/2)·(1 − ρ)·‖w‖²
//! ```
//!
//! minimised by cyclic coordinate descent with the standard soft-thresholding
//! update, matching scikit-learn's `ElasticNet` objective.

use crate::error::AppError;
use crate::linalg::Matrix;
use crate::metrics::r2_score;

/// The coordinate-descent iteration budget.
const MAX_ITERATIONS: usize = 1000;

/// Convergence tolerance on the maximum coefficient change of a sweep.
const TOLERANCE: f64 = 1e-6;

/// Elastic-net linear regression trained by coordinate descent.
///
/// # Example
///
/// ```
/// use faultmit_apps::{ElasticNet, Matrix};
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// // y = 2·x0 + noise-free
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y = vec![0.0, 2.0, 4.0, 6.0];
/// let mut model = ElasticNet::new(1e-4, 0.5)?;
/// model.fit(&x, &y)?;
/// let prediction = model.predict(&x)?;
/// assert!((prediction[3] - 6.0).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticNet {
    alpha: f64,
    l1_ratio: f64,
    weights: Option<Vec<f64>>,
    intercept: f64,
}

impl ElasticNet {
    /// Creates an elastic-net model with regularisation strength `alpha` and
    /// L1 mixing ratio `l1_ratio` (0 = ridge, 1 = lasso).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when `alpha` is negative or
    /// `l1_ratio` is outside `[0, 1]`.
    pub fn new(alpha: f64, l1_ratio: f64) -> Result<Self, AppError> {
        if alpha < 0.0 || !alpha.is_finite() {
            return Err(AppError::InvalidParameter {
                reason: format!("alpha must be non-negative, got {alpha}"),
            });
        }
        if !(0.0..=1.0).contains(&l1_ratio) {
            return Err(AppError::InvalidParameter {
                reason: format!("l1_ratio must be in [0, 1], got {l1_ratio}"),
            });
        }
        Ok(Self {
            alpha,
            l1_ratio,
            weights: None,
            intercept: 0.0,
        })
    }

    /// The configuration used for the wine-quality benchmark: light
    /// regularisation with an even L1/L2 mix.
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for signature uniformity.
    pub fn paper_default() -> Result<Self, AppError> {
        Self::new(0.01, 0.5)
    }

    /// Fitted coefficients (one per feature).
    #[must_use]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted intercept.
    #[must_use]
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Fits the model to `(x, y)` by cyclic coordinate descent.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when `x` and `y` disagree on
    /// the sample count or the data is empty.
    pub fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), AppError> {
        let n = x.rows();
        let p = x.cols();
        if n == 0 || p == 0 || y.len() != n {
            return Err(AppError::DimensionMismatch {
                reason: format!("{n} samples x {p} features vs {} targets", y.len()),
            });
        }
        let n_f = n as f64;
        let y_mean = y.iter().sum::<f64>() / n_f;
        let x_means = x.column_means();

        // Centred copies keep the intercept out of the penalty. The features
        // are stored column-major: coordinate descent walks one feature at a
        // time, so each column is one contiguous slice.
        let xc: Vec<f64> = x_means
            .iter()
            .enumerate()
            .flat_map(|(c, &mean)| {
                x.as_slice()
                    .iter()
                    .skip(c)
                    .step_by(p)
                    .map(move |v| v - mean)
            })
            .collect();
        let columns: Vec<&[f64]> = xc.chunks_exact(n).collect();
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        // Per-feature squared norms (the coordinate-descent denominators).
        let col_sq: Vec<f64> = columns
            .iter()
            .map(|column| column.iter().map(|v| v * v).sum::<f64>() / n_f)
            .collect();

        let l1 = self.alpha * self.l1_ratio;
        let l2 = self.alpha * (1.0 - self.l1_ratio);

        let mut weights = vec![0.0; p];
        let mut residual = yc.clone(); // residual = yc − Xc·w (starts at yc)

        for _ in 0..MAX_ITERATIONS {
            let mut max_change = 0.0_f64;
            for j in 0..p {
                if col_sq[j] <= 1e-18 {
                    continue;
                }
                let column = columns[j];
                let old = weights[j];
                // rho = (1/n)·Σ x_ij·(residual_i + x_ij·w_j)
                let mut rho = 0.0;
                for (&xij, &res) in column.iter().zip(&residual) {
                    rho += xij * (res + xij * old);
                }
                rho /= n_f;
                let new = soft_threshold(rho, l1) / (col_sq[j] + l2);
                if (new - old).abs() > 0.0 {
                    for (res, &xij) in residual.iter_mut().zip(column) {
                        *res += xij * (old - new);
                    }
                }
                weights[j] = new;
                max_change = max_change.max((new - old).abs());
            }
            if max_change < TOLERANCE {
                break;
            }
        }

        self.intercept = y_mean
            - weights
                .iter()
                .zip(&x_means)
                .map(|(w, m)| w * m)
                .sum::<f64>();
        self.weights = Some(weights);
        Ok(())
    }

    /// Predicts targets for new samples.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before [`ElasticNet::fit`], or
    /// [`AppError::DimensionMismatch`] when the feature count differs.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<f64>, AppError> {
        let weights = self.weights.as_ref().ok_or_else(|| AppError::NotFitted {
            model: "ElasticNet".to_owned(),
        })?;
        if x.cols() != weights.len() {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "model has {} features but input has {}",
                    weights.len(),
                    x.cols()
                ),
            });
        }
        Ok(x.matvec(weights)?
            .into_iter()
            .map(|v| v + self.intercept)
            .collect())
    }

    /// Convenience: R² of the model on `(x, y)`.
    ///
    /// # Errors
    ///
    /// Propagates prediction and metric errors.
    pub fn score(&self, x: &Matrix, y: &[f64]) -> Result<f64, AppError> {
        r2_score(y, &self.predict(x)?)
    }
}

fn soft_threshold(value: f64, threshold: f64) -> f64 {
    if value > threshold {
        value - threshold
    } else if value < -threshold {
        value + threshold
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data() -> (Matrix, Vec<f64>) {
        // y = 3·x0 − 2·x1 + 1
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let x0 = (i % 10) as f64 / 10.0;
            let x1 = (i % 7) as f64 / 7.0;
            rows.push(vec![x0, x1]);
            y.push(3.0 * x0 - 2.0 * x1 + 1.0);
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn constructor_validates_hyperparameters() {
        assert!(ElasticNet::new(-1.0, 0.5).is_err());
        assert!(ElasticNet::new(f64::NAN, 0.5).is_err());
        assert!(ElasticNet::new(0.1, 1.5).is_err());
        assert!(ElasticNet::new(0.1, -0.1).is_err());
        assert!(ElasticNet::new(0.0, 0.0).is_ok());
        assert!(ElasticNet::paper_default().is_ok());
    }

    #[test]
    fn unregularised_fit_recovers_linear_relationship() {
        let (x, y) = linear_data();
        let mut model = ElasticNet::new(0.0, 0.5).unwrap();
        model.fit(&x, &y).unwrap();
        let w = model.weights().unwrap();
        assert!((w[0] - 3.0).abs() < 1e-3, "w0 = {}", w[0]);
        assert!((w[1] + 2.0).abs() < 1e-3, "w1 = {}", w[1]);
        assert!((model.intercept() - 1.0).abs() < 1e-3);
        assert!(model.score(&x, &y).unwrap() > 0.999);
    }

    #[test]
    fn light_regularisation_keeps_high_r2() {
        let (x, y) = linear_data();
        let mut model = ElasticNet::paper_default().unwrap();
        model.fit(&x, &y).unwrap();
        assert!(model.score(&x, &y).unwrap() > 0.95);
    }

    #[test]
    fn strong_l1_drives_weights_to_zero() {
        let (x, y) = linear_data();
        let mut model = ElasticNet::new(1e3, 1.0).unwrap();
        model.fit(&x, &y).unwrap();
        for &w in model.weights().unwrap() {
            assert_eq!(w, 0.0);
        }
        // Prediction degenerates to the mean → R² ≈ 0.
        assert!(model.score(&x, &y).unwrap().abs() < 1e-6);
    }

    #[test]
    fn ridge_shrinks_but_does_not_sparsify() {
        let (x, y) = linear_data();
        let mut ridge = ElasticNet::new(0.5, 0.0).unwrap();
        ridge.fit(&x, &y).unwrap();
        let w = ridge.weights().unwrap();
        assert!(w.iter().all(|&v| v.abs() > 0.0));
        assert!(w[0] < 3.0, "ridge must shrink the coefficient");
    }

    #[test]
    fn predict_requires_fit_and_matching_shape() {
        let (x, y) = linear_data();
        let model = ElasticNet::new(0.1, 0.5).unwrap();
        assert!(matches!(model.predict(&x), Err(AppError::NotFitted { .. })));
        let mut model = ElasticNet::new(0.1, 0.5).unwrap();
        model.fit(&x, &y).unwrap();
        let wrong = Matrix::zeros(3, 5);
        assert!(model.predict(&wrong).is_err());
    }

    #[test]
    fn fit_rejects_mismatched_inputs() {
        let (x, _) = linear_data();
        let mut model = ElasticNet::new(0.1, 0.5).unwrap();
        assert!(model.fit(&x, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn constant_feature_is_ignored_gracefully() {
        let x = Matrix::from_rows(&[
            vec![1.0, 7.0],
            vec![2.0, 7.0],
            vec![3.0, 7.0],
            vec![4.0, 7.0],
        ])
        .unwrap();
        let y = vec![2.0, 4.0, 6.0, 8.0];
        let mut model = ElasticNet::new(0.0, 0.5).unwrap();
        model.fit(&x, &y).unwrap();
        let w = model.weights().unwrap();
        assert!((w[0] - 2.0).abs() < 1e-6);
        assert_eq!(w[1], 0.0);
    }
}
