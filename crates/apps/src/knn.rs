//! K-nearest-neighbours classification.
//!
//! The paper's classification benchmark (Table 1): human activity recognition
//! from accelerometer features, evaluated with the classification score
//! (accuracy). KNN stores its entire training set in memory, which makes it a
//! natural candidate for studying memory-fault resilience — a corrupted
//! training sample only shifts a few neighbourhood votes.

use crate::error::AppError;
use crate::linalg::Matrix;
use crate::metrics::accuracy_score;

/// Brute-force KNN classifier with Euclidean distance and majority voting.
///
/// # Example
///
/// ```
/// use faultmit_apps::{KnnClassifier, Matrix};
///
/// # fn main() -> Result<(), faultmit_apps::AppError> {
/// let train = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.1], vec![5.0, 5.0], vec![5.1, 4.9],
/// ])?;
/// let labels = vec![0, 0, 1, 1];
/// let mut knn = KnnClassifier::new(3)?;
/// knn.fit(&train, &labels)?;
/// let test = Matrix::from_rows(&[vec![0.05, 0.0], vec![4.9, 5.2]])?;
/// assert_eq!(knn.predict(&test)?, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnnClassifier {
    k: usize,
    train_x: Option<Matrix>,
    train_y: Option<Vec<usize>>,
}

impl KnnClassifier {
    /// Creates a classifier using the `k` nearest neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::InvalidParameter`] when `k` is zero.
    pub fn new(k: usize) -> Result<Self, AppError> {
        if k == 0 {
            return Err(AppError::InvalidParameter {
                reason: "k must be at least 1".to_owned(),
            });
        }
        Ok(Self {
            k,
            train_x: None,
            train_y: None,
        })
    }

    /// The paper-style configuration (`k = 5`).
    ///
    /// # Errors
    ///
    /// Never fails; kept fallible for signature uniformity.
    pub fn paper_default() -> Result<Self, AppError> {
        Self::new(5)
    }

    /// Number of neighbours consulted per prediction.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stores the training set (KNN is a lazy learner).
    ///
    /// # Errors
    ///
    /// Returns [`AppError::DimensionMismatch`] when `x` and `labels` disagree
    /// on the sample count or the training set is smaller than `k`.
    pub fn fit(&mut self, x: &Matrix, labels: &[usize]) -> Result<(), AppError> {
        if x.rows() != labels.len() {
            return Err(AppError::DimensionMismatch {
                reason: format!("{} samples but {} labels", x.rows(), labels.len()),
            });
        }
        if x.rows() < self.k {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "need at least k = {} training samples, got {}",
                    self.k,
                    x.rows()
                ),
            });
        }
        self.train_x = Some(x.clone());
        self.train_y = Some(labels.to_vec());
        Ok(())
    }

    /// Predicts labels for each row of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`AppError::NotFitted`] before [`KnnClassifier::fit`], or a
    /// dimension error when the feature count differs from the training data.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, AppError> {
        let (train_x, train_y) = self.fitted()?;
        if x.cols() != train_x.cols() {
            return Err(AppError::DimensionMismatch {
                reason: format!(
                    "model was trained on {} features but got {}",
                    train_x.cols(),
                    x.cols()
                ),
            });
        }
        let mut predictions = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let query = x.row(r);
            predictions.push(self.vote(&query, train_x, train_y));
        }
        Ok(predictions)
    }

    /// Classification accuracy on a labelled test set — the paper's "score"
    /// metric for the activity-recognition benchmark.
    ///
    /// # Errors
    ///
    /// Propagates prediction and metric errors.
    pub fn score(&self, x: &Matrix, labels: &[usize]) -> Result<f64, AppError> {
        accuracy_score(labels, &self.predict(x)?)
    }

    fn fitted(&self) -> Result<(&Matrix, &Vec<usize>), AppError> {
        match (&self.train_x, &self.train_y) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(AppError::NotFitted {
                model: "KnnClassifier".to_owned(),
            }),
        }
    }

    fn vote(&self, query: &[f64], train_x: &Matrix, train_y: &[usize]) -> usize {
        // Squared distance to every training sample, tagged with its index.
        let cols = train_x.cols();
        let data = train_x.as_slice();
        let mut distances: Vec<(f64, usize)> = (0..train_x.rows())
            .map(|i| {
                let mut d = 0.0;
                for (&x, &q) in data[i * cols..(i + 1) * cols].iter().zip(query) {
                    let diff = x - q;
                    d += diff * diff;
                }
                (d, i)
            })
            .collect();
        // The k nearest by (distance, index): an equal distance goes to the
        // earlier training sample. `fit` guarantees k ≤ the sample count.
        let k = self.k;
        distances.select_nth_unstable_by(k - 1, |a, b| {
            a.0.partial_cmp(&b.0)
                .expect("distances are finite")
                .then(a.1.cmp(&b.1))
        });

        // Majority vote over the k nearest; ties break towards the smaller
        // label for determinism.
        let mut counts: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for &(_, index) in &distances[..k] {
            *counts.entry(train_y[index]).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(label, _)| label)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + 0.05 * i as f64, 0.0]);
            labels.push(0);
            rows.push(vec![10.0 - 0.05 * i as f64, 10.0]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn constructor_validates_k() {
        assert!(KnnClassifier::new(0).is_err());
        assert_eq!(KnnClassifier::new(3).unwrap().k(), 3);
        assert_eq!(KnnClassifier::paper_default().unwrap().k(), 5);
    }

    #[test]
    fn separable_clusters_are_classified_perfectly() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(3).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.score(&x, &y).unwrap(), 1.0);
        let test = Matrix::from_rows(&[vec![0.2, 0.1], vec![9.5, 9.8]]).unwrap();
        assert_eq!(knn.predict(&test).unwrap(), vec![0, 1]);
    }

    #[test]
    fn single_neighbour_memorises_training_data() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(1).unwrap();
        knn.fit(&x, &y).unwrap();
        assert_eq!(knn.predict(&x).unwrap(), y);
    }

    #[test]
    fn majority_vote_overrules_single_outlier() {
        // Two class-0 points near the query, one class-1 point exactly on it.
        let x = Matrix::from_rows(&[
            vec![0.1, 0.0],
            vec![-0.1, 0.0],
            vec![0.0, 0.0],
            vec![5.0, 5.0],
        ])
        .unwrap();
        let y = vec![0, 0, 1, 1];
        let mut knn = KnnClassifier::new(3).unwrap();
        knn.fit(&x, &y).unwrap();
        let query = Matrix::from_rows(&[vec![0.0, 0.01]]).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![0]);
    }

    #[test]
    fn unfitted_model_is_rejected() {
        let knn = KnnClassifier::new(3).unwrap();
        assert!(matches!(
            knn.predict(&Matrix::zeros(1, 2)),
            Err(AppError::NotFitted { .. })
        ));
    }

    #[test]
    fn fit_and_predict_validate_shapes() {
        let (x, y) = clusters();
        let mut knn = KnnClassifier::new(3).unwrap();
        assert!(knn.fit(&x, &y[..3]).is_err());
        assert!(knn.fit(&Matrix::zeros(2, 2), &[0, 1]).is_err()); // fewer than k samples
        knn.fit(&x, &y).unwrap();
        assert!(knn.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        // k = 2 with one neighbour from each class: the smaller label wins.
        let x = Matrix::from_rows(&[vec![1.0], vec![-1.0]]).unwrap();
        let y = vec![0, 1];
        let mut knn = KnnClassifier::new(2).unwrap();
        knn.fit(&x, &y).unwrap();
        let query = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![0]);
    }

    #[test]
    fn equal_distances_at_the_k_boundary_go_to_the_earlier_sample() {
        // Query 0 with k = 3: sample 4 (label 1) is nearest, then samples
        // 0..=3 tie at distance 1 for the last two places. The index
        // tie-break admits samples 0 and 1 (label 0), so label 0 wins 2:1;
        // admitting samples 2 and 3 instead would vote 3:0 for label 1.
        let x =
            Matrix::from_rows(&[vec![1.0], vec![-1.0], vec![1.0], vec![-1.0], vec![0.0]]).unwrap();
        let y = vec![0, 0, 1, 1, 1];
        let mut knn = KnnClassifier::new(3).unwrap();
        knn.fit(&x, &y).unwrap();
        let query = Matrix::from_rows(&[vec![0.0]]).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![0]);

        // Reversed sample order: the tied label-1 samples now come first,
        // so the same selection rule votes 3:0 for label 1.
        let x_rev =
            Matrix::from_rows(&[vec![0.0], vec![-1.0], vec![1.0], vec![-1.0], vec![1.0]]).unwrap();
        let y_rev = vec![1, 1, 1, 0, 0];
        knn.fit(&x_rev, &y_rev).unwrap();
        assert_eq!(knn.predict(&query).unwrap(), vec![1]);
    }

    #[test]
    fn corrupting_one_training_sample_changes_few_predictions() {
        // The error-resilience property the paper relies on: a single
        // corrupted training row barely moves the decision boundary.
        let (x, y) = clusters();
        let mut clean = KnnClassifier::new(5).unwrap();
        clean.fit(&x, &y).unwrap();

        let mut corrupted_x = x.clone();
        corrupted_x.set(0, 0, 1000.0); // one wildly corrupted feature
        let mut corrupted = KnnClassifier::new(5).unwrap();
        corrupted.fit(&corrupted_x, &y).unwrap();

        let test = Matrix::from_rows(&[
            vec![0.1, 0.2],
            vec![9.9, 9.7],
            vec![0.3, -0.1],
            vec![10.2, 10.1],
        ])
        .unwrap();
        let expected = vec![0, 1, 0, 1];
        assert_eq!(clean.predict(&test).unwrap(), expected);
        assert_eq!(corrupted.predict(&test).unwrap(), expected);
    }
}
