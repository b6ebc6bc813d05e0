//! Dense linear algebra, statistics, and seeded sampling utilities.
//!
//! This crate is the numerical substrate for the `lodcal` workspace. It
//! provides exactly what the calibration framework and the surrogate models
//! need — a small dense [`Matrix`] type with Cholesky
//! factorization, descriptive statistics over slices, distance metrics, and
//! deterministic random sampling helpers — with no external BLAS/LAPACK
//! dependency so that the workspace builds anywhere.
//!
//! All randomness flows through explicit [`Rng`] instances seeded by the
//! caller, which is what makes every experiment in the workspace
//! reproducible bit-for-bit.

pub mod mat;
pub mod rng;
pub mod special;
pub mod stats;

pub use mat::{Cholesky, Matrix};
pub use rng::{lognormal, normal, rng_from_seed, truncated_normal, Rng};
pub use special::{erf, norm_cdf, norm_pdf};
pub use stats::{
    argmax, argmin, explained_variance, l1_distance, l2_distance, max, mean, median, min, quantile,
    relative_l1_distance, std_dev, variance,
};
