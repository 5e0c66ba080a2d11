//! Data images: *what the memory stores* during fault evaluation.
//!
//! The paper's observation (§5.2) — and the premise of the
//! Heterogeneous-Reliability-Memory line of work — is that the impact of a
//! memory fault depends on the application data it corrupts: a stuck-at-0
//! cell under a bit that already stores 0 is harmless, while the same cell
//! under a 1 bit silently flips it. The historical MSE campaigns evaluated
//! an all-zeros background, which makes every fault of the paper's
//! `AlwaysFlip` injection protocol observable but collapses the stuck-at
//! laws ([`crate::backend::FaultKindLaw`]) into "stuck-at-1 hurts,
//! stuck-at-0 never does".
//!
//! [`ImageSpec`] is the campaign-level identity of an image — `Copy`,
//! order-insensitive and CLI-parseable (`--image zeros|ones|random[:seed]|`
//! `sparse[:seed]|wine|madelon|har`) — so campaigns over images shard and
//! merge with the same bit-identity guarantees as every other campaign
//! axis. [`ImageSpec::words`] renders an image as the one stored word per
//! memory row that data-aware evaluators read the faulty memory against.
//!
//! The application-matrix images ([`AppImage`]) name fixed-point quantised
//! benchmark datasets; their *data generation* lives above this crate (the
//! `faultmit-apps` image module renders them), which is why
//! [`ImageSpec::words`] resolves only the self-contained images.

use crate::config::MemoryConfig;
use crate::error::MemError;
use crate::seeder::StreamSeeder;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// RNG stream id reserved for data-image generation, distinct from the
/// fault-placement stream (0) so image words and fault maps never share
/// random state.
const IMAGE_STREAM: u64 = 0xDA7A;

/// Default seed of the seedable image sources when `--image random` /
/// `--image sparse` is given without an explicit seed.
pub const DEFAULT_IMAGE_SEED: u64 = 0xDA7A_5EED;

/// One row in `SPARSE_DENSITY` of a sparse image is non-zero.
const SPARSE_DENSITY: usize = 8;

/// A fixed-point application matrix image: one of the benchmark datasets,
/// quantised to the memory's word format. Named here so [`ImageSpec`] can
/// carry the identity through campaign configs and shard files; the data
/// generation and quantisation live in the apps layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppImage {
    /// The wine-quality regression features (the Elasticnet benchmark).
    Wine,
    /// The Madelon classification features (the PCA benchmark).
    Madelon,
    /// The activity-recognition features (the KNN benchmark).
    Har,
}

impl AppImage {
    /// All application images, in catalogue order.
    pub const ALL: [AppImage; 3] = [AppImage::Wine, AppImage::Madelon, AppImage::Har];

    /// Canonical image name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AppImage::Wine => "wine",
            AppImage::Madelon => "madelon",
            AppImage::Har => "har",
        }
    }
}

/// The campaign-level identity of a data image: which stored-data pattern a
/// data-aware campaign evaluates faults against.
///
/// `Copy`, hashable and round-trippable through its [`fmt::Display`] form,
/// so it can ride inside campaign configurations, figure specs and shard
/// checkpoint files. Parse with [`FromStr`]:
///
/// ```
/// use faultmit_memsim::image::ImageSpec;
///
/// assert_eq!("zeros".parse::<ImageSpec>().unwrap(), ImageSpec::Zeros);
/// let random: ImageSpec = "random:7".parse().unwrap();
/// assert_eq!(random, ImageSpec::UniformRandom { seed: 7 });
/// // Display is the canonical round-trippable form.
/// assert_eq!(random.to_string().parse::<ImageSpec>().unwrap(), random);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageSpec {
    /// All-zeros background — the historical MSE protocol and the pipeline's
    /// bit-identical fast path.
    Zeros,
    /// All data bits set: every stuck-at-0 fault observable, stuck-at-1 silent.
    Ones,
    /// Uniform-random words derived from the seed.
    UniformRandom {
        /// Seed of the per-row word derivation.
        seed: u64,
    },
    /// Sparse/low-entropy pattern derived from the seed, the profile of
    /// zero-initialised buffers and one-hot encodings.
    Sparse {
        /// Seed of the per-row word derivation.
        seed: u64,
    },
    /// A fixed-point quantised application matrix (materialised by the apps
    /// layer).
    App(AppImage),
}

impl ImageSpec {
    /// The word stored in every row of a memory of geometry `config`, in
    /// row order.
    ///
    /// Zeros and ones are constant. `random` and `sparse` draw each row's
    /// word from that row's own stream of the seed, so a word depends only
    /// on `(seed, row)`: every bit of a `random` word is set with
    /// probability ½, and a `sparse` row holds, with probability 1/8, a
    /// single set bit at a random position, and zero otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidParameter`] for [`ImageSpec::App`] images,
    /// whose dataset generation lives above this crate — resolve those
    /// through the apps layer's image module instead.
    pub fn words(&self, config: MemoryConfig) -> Result<Vec<u64>, MemError> {
        let rows = 0..config.rows();
        let row_rng = |seed, row: usize| StreamSeeder::new(seed).rng_for(IMAGE_STREAM, row as u64);
        Ok(match *self {
            ImageSpec::Zeros => vec![0; rows.len()],
            ImageSpec::Ones => vec![config.word_mask(); rows.len()],
            ImageSpec::UniformRandom { seed } => rows
                .map(|row| row_rng(seed, row).gen::<u64>() & config.word_mask())
                .collect(),
            ImageSpec::Sparse { seed } => rows
                .map(|row| {
                    let mut rng = row_rng(seed, row);
                    if rng.gen_range(0..SPARSE_DENSITY) == 0 {
                        1u64 << rng.gen_range(0..config.word_bits())
                    } else {
                        0
                    }
                })
                .collect(),
            ImageSpec::App(app) => {
                return Err(MemError::InvalidParameter {
                    reason: format!(
                        "the '{}' application image is materialised by the apps layer \
                         (faultmit-apps image module), not by faultmit-memsim",
                        app.name()
                    ),
                })
            }
        })
    }
}

impl fmt::Display for ImageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageSpec::Zeros => f.write_str("zeros"),
            ImageSpec::Ones => f.write_str("ones"),
            ImageSpec::UniformRandom { seed } => write!(f, "random:{seed}"),
            ImageSpec::Sparse { seed } => write!(f, "sparse:{seed}"),
            ImageSpec::App(app) => f.write_str(app.name()),
        }
    }
}

impl FromStr for ImageSpec {
    type Err = MemError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        // The `app:<name>` alias embeds a colon, so resolve it before the
        // seed split below would misread `<name>` as a seed.
        if let Some(app) = lower.strip_prefix("app:") {
            return match app {
                "wine" => Ok(ImageSpec::App(AppImage::Wine)),
                "madelon" => Ok(ImageSpec::App(AppImage::Madelon)),
                "har" | "activity" => Ok(ImageSpec::App(AppImage::Har)),
                other => Err(MemError::InvalidParameter {
                    reason: format!(
                        "unknown application image '{other}', expected wine|madelon|har"
                    ),
                }),
            };
        }
        let (name, seed) = match lower.split_once(':') {
            Some((name, seed)) => {
                let seed: u64 = seed
                    .trim()
                    .parse()
                    .map_err(|_| MemError::InvalidParameter {
                        reason: format!("image seed '{seed}' is not a 64-bit unsigned integer"),
                    })?;
                (name.trim(), Some(seed))
            }
            None => (lower.as_str(), None),
        };
        let spec = match name {
            "zeros" | "zero" => ImageSpec::Zeros,
            "ones" | "one" => ImageSpec::Ones,
            "random" | "uniform" => ImageSpec::UniformRandom {
                seed: seed.unwrap_or(DEFAULT_IMAGE_SEED),
            },
            "sparse" => ImageSpec::Sparse {
                seed: seed.unwrap_or(DEFAULT_IMAGE_SEED),
            },
            "wine" => ImageSpec::App(AppImage::Wine),
            "madelon" => ImageSpec::App(AppImage::Madelon),
            "har" | "activity" => ImageSpec::App(AppImage::Har),
            other => {
                return Err(MemError::InvalidParameter {
                    reason: format!(
                        "unknown image '{other}', expected \
                         zeros|ones|random[:seed]|sparse[:seed]|wine|madelon|har"
                    ),
                })
            }
        };
        // A seed on a non-seedable image is a user error, not noise.
        if seed.is_some()
            && !matches!(
                spec,
                ImageSpec::UniformRandom { .. } | ImageSpec::Sparse { .. }
            )
        {
            return Err(MemError::InvalidParameter {
                reason: format!("image '{name}' does not take a seed"),
            });
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemoryConfig {
        MemoryConfig::new(64, 32).unwrap()
    }

    fn words(spec: ImageSpec, rows: usize, word_bits: usize) -> Vec<u64> {
        spec.words(MemoryConfig::new(rows, word_bits).unwrap())
            .unwrap()
    }

    #[test]
    fn image_words_match_known_answers() {
        // Known answers on a 64 × 32 memory: fig9 evaluates these words, so
        // they must not move with any rewrite of the derivation.
        let random = words(ImageSpec::UniformRandom { seed: 7 }, 64, 32);
        assert_eq!(
            random[..4],
            [0x8886_7f2c, 0x5229_85fc, 0x39e2_68c0, 0x8f31_297d]
        );
        let sparse = words(ImageSpec::Sparse { seed: 7 }, 64, 32);
        let first_set: Vec<(usize, u64)> = sparse
            .into_iter()
            .enumerate()
            .filter(|&(_, word)| word != 0)
            .take(3)
            .collect();
        assert_eq!(first_set, [(2, 0x4_0000), (5, 0x2), (15, 0x4_0000)]);
        for (word_bits, mask) in [(1, 1), (32, 0xFFFF_FFFF), (64, u64::MAX)] {
            assert_eq!(words(ImageSpec::Ones, 64, word_bits), vec![mask; 64]);
        }
        assert_eq!(words(ImageSpec::Zeros, 4, 32), vec![0; 4]);
    }

    #[test]
    fn random_image_is_deterministic_per_row_and_masked() {
        let random = |seed, rows| words(ImageSpec::UniformRandom { seed }, rows, 32);
        let image = random(42, 512);
        assert_eq!(image, random(42, 512));
        assert!(image.iter().all(|word| word >> 32 == 0));
        // A row's word depends only on (seed, row), not on the geometry.
        assert_eq!(image[..64], random(42, 64));
        // Different seeds and different rows diverge.
        assert_ne!(image[0], random(43, 1)[0]);
        assert_ne!(image[0], image[1]);
        // Roughly half of the bits are set across many rows.
        let set_bits: u32 = image.iter().map(|word| word.count_ones()).sum();
        let fraction = f64::from(set_bits) / (512.0 * 32.0);
        assert!((fraction - 0.5).abs() < 0.05, "set-bit fraction {fraction}");
    }

    #[test]
    fn sparse_image_is_mostly_zero_with_single_bit_rows() {
        let image = words(ImageSpec::Sparse { seed: 7 }, 4096, 32);
        let non_zero = image.iter().filter(|&&w| w != 0).count();
        for &word in &image {
            assert!(word.count_ones() <= 1, "word {word:#x} is not one-hot");
            assert_eq!(word >> 32, 0);
        }
        let density = non_zero as f64 / 4096.0;
        let expected = 1.0 / SPARSE_DENSITY as f64;
        assert!(
            (density - expected).abs() < 0.03,
            "non-zero density {density}, expected ~{expected}"
        );
        assert_eq!(image, words(ImageSpec::Sparse { seed: 7 }, 4096, 32));
    }

    #[test]
    fn image_specs_round_trip_through_display() {
        let specs = [
            ImageSpec::Zeros,
            ImageSpec::Ones,
            ImageSpec::UniformRandom { seed: 7 },
            ImageSpec::UniformRandom {
                seed: DEFAULT_IMAGE_SEED,
            },
            ImageSpec::Sparse { seed: u64::MAX },
            ImageSpec::App(AppImage::Wine),
            ImageSpec::App(AppImage::Madelon),
            ImageSpec::App(AppImage::Har),
        ];
        for spec in specs {
            let round: ImageSpec = spec.to_string().parse().unwrap();
            assert_eq!(round, spec, "{spec} does not round-trip");
        }
    }

    #[test]
    fn image_spec_parsing_accepts_aliases_and_rejects_garbage() {
        assert_eq!("ZEROS".parse::<ImageSpec>().unwrap(), ImageSpec::Zeros);
        assert_eq!("one".parse::<ImageSpec>().unwrap(), ImageSpec::Ones);
        assert_eq!(
            "random".parse::<ImageSpec>().unwrap(),
            ImageSpec::UniformRandom {
                seed: DEFAULT_IMAGE_SEED
            }
        );
        assert_eq!(
            "uniform:9".parse::<ImageSpec>().unwrap(),
            ImageSpec::UniformRandom { seed: 9 }
        );
        assert_eq!(
            "sparse:3".parse::<ImageSpec>().unwrap(),
            ImageSpec::Sparse { seed: 3 }
        );
        assert_eq!(
            "activity".parse::<ImageSpec>().unwrap(),
            ImageSpec::App(AppImage::Har)
        );
        // The app:<name> prefix form resolves despite its embedded colon.
        for (alias, app) in [
            ("app:wine", AppImage::Wine),
            ("APP:MADELON", AppImage::Madelon),
            ("app:har", AppImage::Har),
            ("app:activity", AppImage::Har),
        ] {
            assert_eq!(
                alias.parse::<ImageSpec>().unwrap(),
                ImageSpec::App(app),
                "{alias}"
            );
        }
        assert!("app:noise".parse::<ImageSpec>().is_err());
        assert!("noise".parse::<ImageSpec>().is_err());
        assert!("random:xyz".parse::<ImageSpec>().is_err());
        assert!("zeros:5".parse::<ImageSpec>().is_err());
        assert!("wine:1".parse::<ImageSpec>().is_err());
    }

    #[test]
    fn words_cover_self_contained_images_only() {
        for spec in [
            ImageSpec::Zeros,
            ImageSpec::Ones,
            ImageSpec::UniformRandom { seed: 1 },
            ImageSpec::Sparse { seed: 1 },
        ] {
            assert_eq!(spec.words(config()).unwrap().len(), 64);
        }
        let error = ImageSpec::App(AppImage::Wine).words(config()).unwrap_err();
        assert!(error.to_string().contains("apps layer"), "{error}");
    }

    #[test]
    fn app_image_names_are_stable() {
        assert_eq!(AppImage::ALL.len(), 3);
        for app in AppImage::ALL {
            assert_eq!(
                ImageSpec::App(app).to_string(),
                app.name(),
                "display must match the canonical name"
            );
        }
    }
}
