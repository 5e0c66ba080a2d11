//! Error-resilient data-mining applications running on unreliable memories.
//!
//! The paper's §5.2 measures how much application-level quality is lost when
//! the *training data* of three widely used algorithms passes through a
//! faulty 16 KB memory protected by different schemes (Table 1, Fig. 7):
//!
//! | class | algorithm | dataset | quality metric |
//! |---|---|---|---|
//! | regression | Elasticnet | wine quality | R² |
//! | dimensionality reduction | PCA | Madelon | explained variance |
//! | classification | K-nearest neighbours | activity recognition | score |
//!
//! This crate provides from-scratch implementations of the three algorithms
//! ([`ElasticNet`], [`Pca`], [`KnnClassifier`]) on top of a small dense
//! linear-algebra substrate ([`linalg`]), synthetic dataset generators that
//! substitute for the UCI datasets ([`datasets`]), a fixed-point
//! quantisation layer ([`fixedpoint`]), a faulty-memory storage path
//! ([`FaultyStore`]) and the Monte-Carlo quality-evaluation harness that
//! regenerates Fig. 7 ([`quality_eval`]).
//!
//! # Example
//!
//! ```
//! use faultmit_apps::datasets::WineQualityDataset;
//! use faultmit_apps::{Benchmark, QualityEvaluator};
//! use faultmit_core::Scheme;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let evaluator = QualityEvaluator::builder(Benchmark::Elasticnet)
//!     .samples(128)
//!     .memory_rows(512)
//!     .build()?;
//! // Quality of the benchmark with a fault-free memory (normalised to 1.0).
//! let baseline = evaluator.baseline_quality()?;
//! assert!(baseline > 0.0);
//! // Quality with 20 faults under bit-shuffling stays close to the baseline.
//! let q = evaluator.quality_with_faults(&Scheme::shuffle32(5)?, 20, 7)?;
//! assert!(q >= 0.0);
//! # let _ = WineQualityDataset::default();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod elasticnet;
pub mod error;
pub mod faulty_storage;
pub mod fixedpoint;
pub mod image;
pub mod knn;
pub mod linalg;
pub mod metrics;
pub mod pca;
pub mod preprocessing;
pub mod quality_eval;

pub use elasticnet::ElasticNet;
pub use error::AppError;
pub use faulty_storage::{FaultyStore, StoredMatrix};
pub use fixedpoint::FixedPointFormat;
pub use knn::KnnClassifier;
pub use linalg::Matrix;
pub use pca::Pca;
pub use quality_eval::{Benchmark, QualityCdfResult, QualityEvaluator, QualityEvaluatorBuilder};
