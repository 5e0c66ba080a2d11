//! Minimal dense linear-algebra substrate for the benchmark algorithms.
//!
//! Only what Elasticnet, PCA and KNN need: a row-major dense [`Matrix`] with
//! basic arithmetic, column statistics, and a Jacobi eigen-decomposition for
//! symmetric matrices ([`eigen`]).

pub mod eigen;
pub mod matrix;

pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use matrix::Matrix;

/// Inputs of the tests that hold the dispatched loops to their plain
/// bodies.
#[cfg(test)]
pub(crate) mod test_inputs {
    use super::Matrix;
    use crate::datasets::MadelonDataset;
    use crate::faulty_storage::StoredMatrix;
    use crate::fixedpoint::FixedPointFormat;
    use crate::preprocessing::{train_test_split, Standardizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Fig. 7 PCA panel's training matrix at its default scale (200
    /// samples, 160 × 40) as its fits see it: split, standardised and read
    /// back from fault-free Q15.16 storage.
    pub(crate) fn fig7_pca_training_matrix() -> Matrix {
        let dataset = MadelonDataset::new(200, 5, 15, 20, 0xF167).generate();
        let labels: Vec<f64> = dataset.labels.iter().map(|&l| l as f64).collect();
        let split = train_test_split(&dataset.features, &labels, 0.8).unwrap();
        let train = Standardizer::fit(&split.train_x)
            .transform(&split.train_x)
            .unwrap();
        StoredMatrix::new(&train, FixedPointFormat::q15_16())
            .clean()
            .clone()
    }

    /// A `rows × cols` matrix of uniform entries in `[-1, 1)`.
    pub(crate) fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }
}
