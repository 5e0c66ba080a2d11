//! Principal component analysis (PCA).
//!
//! The paper's dimensionality-reduction benchmark (Table 1): PCA on a
//! Madelon-like dataset, with *explained variance* as the quality metric —
//! how much of the data's total variance the retained components capture.

use crate::error::AppError;
use crate::linalg::{jacobi_eigen, Matrix};

/// PCA fitted via the eigen-decomposition of the covariance matrix.
///
/// # Example
///
/// ```
/// use faultmit_apps::{Matrix, Pca};
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// // Points along the line y = x: one component explains everything.
/// let x = Matrix::from_rows(&[
///     vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0], vec![4.0, 4.0],
/// ])?;
/// let mut pca = Pca::new(1)?;
/// pca.fit(&x)?;
/// assert!(pca.explained_variance_ratio()?[0] > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    components: usize,
    max_sweeps: usize,
    /// Column means of the training data.
    means: Option<Vec<f64>>,
    /// Principal axes: one row per retained component.
    axes: Option<Matrix>,
    /// Variance along each retained component.
    component_variances: Option<Vec<f64>>,
    /// Total variance of the training data.
    total_variance: f64,
}

impl Pca {
    /// Creates a PCA retaining `components` principal components.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when `components` is zero.
    pub fn new(components: usize) -> Result<Self, AppError> {
        if components == 0 {
            return Err(AppError::InvalidParameter {
                reason: "PCA needs at least one component".to_owned(),
            });
        }
        Ok(Self {
            components,
            max_sweeps: 200,
            means: None,
            axes: None,
            component_variances: None,
            total_variance: 0.0,
        })
    }

    /// Number of retained components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Fits the PCA to the rows of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when more components are
    /// requested than features, or propagates eigen-decomposition errors.
    pub fn fit(&mut self, x: &Matrix) -> Result<(), AppError> {
        if self.components > x.cols() {
            return Err(AppError::InvalidParameter {
                reason: format!(
                    "cannot retain {} components from {} features",
                    self.components,
                    x.cols()
                ),
            });
        }
        let means = x.column_means();
        let covariance = x.covariance_about(&means)?;
        let eigen = jacobi_eigen(&covariance, self.max_sweeps)?;
        let total_variance: f64 = eigen.values.iter().map(|v| v.max(0.0)).sum();

        let mut axes = Matrix::zeros(self.components, x.cols());
        let mut variances = Vec::with_capacity(self.components);
        for k in 0..self.components {
            variances.push(eigen.values[k].max(0.0));
            for c in 0..x.cols() {
                axes.set(k, c, eigen.vectors.get(c, k));
            }
        }

        self.means = Some(means);
        self.axes = Some(axes);
        self.component_variances = Some(variances);
        self.total_variance = total_variance;
        Ok(())
    }

    /// Fraction of the total variance explained by each retained component.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before [`Pca::fit`].
    pub fn explained_variance_ratio(&self) -> Result<Vec<f64>, AppError> {
        let variances = self
            .component_variances
            .as_ref()
            .ok_or_else(|| AppError::NotFitted {
                model: "PCA".to_owned(),
            })?;
        if self.total_variance <= f64::EPSILON {
            return Ok(vec![0.0; variances.len()]);
        }
        Ok(variances.iter().map(|v| v / self.total_variance).collect())
    }

    /// Total fraction of variance explained by all retained components — the
    /// quality metric of the Fig. 7b benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before [`Pca::fit`].
    pub fn total_explained_variance(&self) -> Result<f64, AppError> {
        Ok(self.explained_variance_ratio()?.iter().sum())
    }

    /// Projects samples onto the retained principal components.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before fitting, or a dimension error
    /// when the feature count differs.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, AppError> {
        let (axes, means) = self.fitted()?;
        if x.cols() != means.len() {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "PCA was fitted on {} features but got {}",
                    means.len(),
                    x.cols()
                ),
            });
        }
        let mut centred = x.clone();
        for r in 0..x.rows() {
            for (c, &mean) in means.iter().enumerate().take(x.cols()) {
                centred.set(r, c, x.get(r, c) - mean);
            }
        }
        centred.matmul(&axes.transpose())
    }

    /// Reconstructs samples from their projection (inverse transform).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before fitting, or a dimension error
    /// when the component count differs.
    pub fn inverse_transform(&self, projected: &Matrix) -> Result<Matrix, AppError> {
        let (axes, means) = self.fitted()?;
        if projected.cols() != self.components {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "expected {} projected columns, got {}",
                    self.components,
                    projected.cols()
                ),
            });
        }
        let mut reconstructed = projected.matmul(axes)?;
        for r in 0..reconstructed.rows() {
            for (c, &mean) in means.iter().enumerate().take(reconstructed.cols()) {
                let value = reconstructed.get(r, c) + mean;
                reconstructed.set(r, c, value);
            }
        }
        Ok(reconstructed)
    }

    fn fitted(&self) -> Result<(&Matrix, &Vec<f64>), AppError> {
        match (&self.axes, &self.means) {
            (Some(axes), Some(means)) => Ok((axes, means)),
            _ => Err(AppError::NotFitted {
                model: "PCA".to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_data() -> Matrix {
        // Strongly correlated 3-feature data: most variance along one axis.
        let mut rows = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 5.0;
            rows.push(vec![
                t,
                2.0 * t + 0.01 * (i % 3) as f64,
                -t + 0.02 * (i % 5) as f64,
            ]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn constructor_validates_component_count() {
        assert!(Pca::new(0).is_err());
        assert!(Pca::new(2).is_ok());
        assert_eq!(Pca::new(3).unwrap().components(), 3);
    }

    #[test]
    fn single_component_captures_a_line() {
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![4.0, 4.0],
        ])
        .unwrap();
        let mut pca = Pca::new(1).unwrap();
        pca.fit(&x).unwrap();
        let ratio = pca.explained_variance_ratio().unwrap();
        assert!(ratio[0] > 0.999);
        assert!((pca.total_explained_variance().unwrap() - ratio[0]).abs() < 1e-12);
    }

    #[test]
    fn explained_variance_sums_to_one_when_all_components_kept() {
        let x = correlated_data();
        let mut pca = Pca::new(3).unwrap();
        pca.fit(&x).unwrap();
        let total = pca.total_explained_variance().unwrap();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn first_component_dominates_for_correlated_data() {
        let x = correlated_data();
        let mut pca = Pca::new(2).unwrap();
        pca.fit(&x).unwrap();
        let ratio = pca.explained_variance_ratio().unwrap();
        assert!(ratio[0] > 0.95, "first component ratio = {}", ratio[0]);
        assert!(ratio[0] >= ratio[1]);
    }

    #[test]
    fn transform_and_inverse_reconstruct_low_rank_data() {
        let x = correlated_data();
        let mut pca = Pca::new(1).unwrap();
        pca.fit(&x).unwrap();
        let projected = pca.transform(&x).unwrap();
        assert_eq!(projected.cols(), 1);
        let reconstructed = pca.inverse_transform(&projected).unwrap();
        // The reconstruction error is small because the data is nearly rank-1.
        let mut err = 0.0;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                err += (x.get(r, c) - reconstructed.get(r, c)).powi(2);
            }
        }
        let rel = err / x.frobenius_norm().powi(2);
        assert!(rel < 0.01, "relative reconstruction error {rel}");
    }

    #[test]
    fn unfitted_model_rejects_queries() {
        let pca = Pca::new(2).unwrap();
        assert!(matches!(
            pca.explained_variance_ratio(),
            Err(AppError::NotFitted { .. })
        ));
        assert!(pca.transform(&Matrix::zeros(2, 2)).is_err());
        assert!(pca.inverse_transform(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn fit_rejects_too_many_components() {
        let x = Matrix::zeros(10, 3);
        let mut pca = Pca::new(4).unwrap();
        assert!(pca.fit(&x).is_err());
    }

    #[test]
    fn transform_rejects_wrong_feature_count() {
        let x = correlated_data();
        let mut pca = Pca::new(2).unwrap();
        pca.fit(&x).unwrap();
        assert!(pca.transform(&Matrix::zeros(5, 4)).is_err());
        assert!(pca.inverse_transform(&Matrix::zeros(5, 3)).is_err());
    }

    #[test]
    fn constant_data_explains_nothing() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]).unwrap();
        let mut pca = Pca::new(1).unwrap();
        pca.fit(&x).unwrap();
        assert_eq!(pca.explained_variance_ratio().unwrap()[0], 0.0);
    }
}
