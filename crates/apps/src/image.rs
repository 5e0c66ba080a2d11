//! Materialisation of data images, including the fixed-point application
//! matrices.
//!
//! `faultmit-memsim`'s [`ImageSpec`] names every image a data-aware
//! campaign can evaluate, but only the self-contained images (zeros, ones,
//! uniform-random, sparse) render their words there. The application images —
//! benchmark feature matrices stored the way the paper stores them, as
//! 2's-complement fixed-point words ([`FixedPointFormat`]) — need the
//! synthetic dataset generators of [`crate::datasets`], so this module is
//! the one-stop resolver: [`image_words`] turns *any* [`ImageSpec`] into
//! the dense per-row word vector the data-aware MSE engine consumes.

use crate::datasets::{HarDataset, MadelonDataset, WineQualityDataset};
use crate::error::AppError;
use crate::fixedpoint::FixedPointFormat;
use faultmit_memsim::image::{AppImage, ImageSpec};
use faultmit_memsim::MemoryConfig;

/// The fixed-point storage format for a memory of the given word width: the
/// paper's Q15.16 for 32-bit words, and the analogous half-fractional split
/// elsewhere.
///
/// # Errors
///
/// Returns [`AppError::InvalidParameter`] for word widths below 2 bits,
/// which cannot carry a signed fixed-point value.
pub fn storage_format(word_bits: usize) -> Result<FixedPointFormat, AppError> {
    if word_bits == 32 {
        Ok(FixedPointFormat::q15_16())
    } else {
        FixedPointFormat::new(word_bits, word_bits / 2)
    }
}

/// Quantises an application image's feature matrix into memory words, in
/// row-major dataset order, using the paper's storage format for the given
/// word width.
///
/// The generators are deterministic (fixed paper-scale seeds), so the same
/// `(app, word_bits)` always yields the same words — a requirement for the
/// campaign pipeline's bit-identical sharding.
///
/// # Errors
///
/// Returns [`AppError::InvalidParameter`] for word widths below 2 bits.
pub fn app_matrix_words(app: AppImage, word_bits: usize) -> Result<Vec<u64>, AppError> {
    let format = storage_format(word_bits)?;
    let features: Vec<f64> = match app {
        AppImage::Wine => WineQualityDataset::paper_scale()
            .generate()
            .features
            .as_slice()
            .to_vec(),
        AppImage::Madelon => MadelonDataset::paper_scale()
            .generate()
            .features
            .as_slice()
            .to_vec(),
        AppImage::Har => HarDataset::paper_scale()
            .generate()
            .features
            .as_slice()
            .to_vec(),
    };
    Ok(format.encode_all(&features))
}

/// Materialises any [`ImageSpec`] — including the application matrices —
/// into one stored word per memory row.
///
/// Self-contained images delegate to [`ImageSpec::words`]; application
/// images quantise their dataset through [`app_matrix_words`] and cycle it
/// over the rows (the matrices hold more values than the paper's 16 KB
/// memory has rows, so in the common case no cycling occurs).
///
/// # Errors
///
/// Propagates quantisation-format and materialisation errors, and refuses
/// an application matrix without words.
pub fn image_words(spec: ImageSpec, config: MemoryConfig) -> Result<Vec<u64>, AppError> {
    let ImageSpec::App(app) = spec else {
        return Ok(spec.words(config)?);
    };
    let words = app_matrix_words(app, config.word_bits())?;
    if words.is_empty() {
        return Err(AppError::InvalidParameter {
            reason: format!("the '{}' image has no words", app.name()),
        });
    }
    Ok(words.iter().copied().cycle().take(config.rows()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemoryConfig {
        MemoryConfig::paper_16kb()
    }

    #[test]
    fn storage_format_matches_the_paper_for_32_bit_words() {
        let format = storage_format(32).unwrap();
        assert_eq!(format, FixedPointFormat::q15_16());
        let format = storage_format(16).unwrap();
        assert_eq!(format.word_bits(), 16);
        assert_eq!(format.frac_bits(), 8);
        assert!(storage_format(1).is_err());
    }

    #[test]
    fn app_images_are_deterministic_and_word_sized() {
        for app in AppImage::ALL {
            let words = app_matrix_words(app, 32).unwrap();
            assert!(!words.is_empty(), "{}", app.name());
            assert!(
                words.iter().all(|&w| w >> 32 == 0),
                "{}: words exceed 32 bits",
                app.name()
            );
            assert_eq!(words, app_matrix_words(app, 32).unwrap(), "{}", app.name());
            // Real feature data is not degenerate: most words are non-zero
            // and many have the sign/high bits clear — the low-significance
            // structure stuck-at campaigns are sensitive to.
            let non_zero = words.iter().filter(|&&w| w != 0).count();
            assert!(
                non_zero * 2 > words.len(),
                "{}: image is mostly zeros",
                app.name()
            );
        }
    }

    #[test]
    fn image_words_covers_every_spec_variant() {
        let specs = [
            ImageSpec::Zeros,
            ImageSpec::Ones,
            ImageSpec::UniformRandom { seed: 5 },
            ImageSpec::Sparse { seed: 5 },
            ImageSpec::App(AppImage::Wine),
            ImageSpec::App(AppImage::Madelon),
            ImageSpec::App(AppImage::Har),
        ];
        for spec in specs {
            let words = image_words(spec, config()).unwrap();
            assert_eq!(words.len(), config().rows(), "{spec}");
            assert_eq!(words, image_words(spec, config()).unwrap(), "{spec}");
        }
        assert!(image_words(ImageSpec::Zeros, config())
            .unwrap()
            .iter()
            .all(|&w| w == 0));
    }

    #[test]
    fn quantised_features_round_trip_through_the_storage_format() {
        // Spot-check that the stored words decode back to values on the
        // feature scale (the Q15.16 range easily covers them).
        let format = storage_format(32).unwrap();
        let words = app_matrix_words(AppImage::Wine, 32).unwrap();
        let decoded: Vec<f64> = words.iter().take(100).map(|&w| format.decode(w)).collect();
        assert!(decoded.iter().any(|&v| v != 0.0));
        assert!(decoded.iter().all(|&v| v.abs() < 1000.0));
    }
}
