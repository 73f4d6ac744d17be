//! # odflow-linalg — dense numerics substrate for the subspace method
//!
//! Self-contained dense linear algebra used by the `odflow` workspace:
//! a row-major [`Matrix`], symmetric eigendecomposition by blocked
//! Householder tridiagonalization with implicit-shift QR
//! ([`eigen_symmetric`]), exact thin SVD via the Gram eigenproblem
//! ([`thin_svd`], and [`truncated_svd`] for a model fit), column means, and
//! covariance / scatter matrices.
//!
//! The paper this workspace reproduces (Lakhina, Crovella & Diot,
//! *Characterization of Network-Wide Anomalies in Traffic Flows*, IMC 2004)
//! performs PCA over an `n x p` multivariate timeseries of origin-destination
//! flow traffic with `p = 121`: tall-skinny data, a small dense symmetric
//! eigenproblem. The same kernels factor wide windows too —
//! [`truncated_svd`] takes a window with fewer bins than OD pairs (a
//! `24 x 90 000` mesh window) exactly through its `n x n` row Gram, read
//! where it lies. Every fit is exact; on a wide window its cost grows as
//! `O(n² p)`, so a window long *and* wide (a week of a mesh) is slow rather
//! than approximate. Everything is implemented from scratch so the
//! workspace carries no external numerics dependency (Rust PCA tooling
//! being thin is exactly why).
//!
//! ## Quick example
//!
//! ```
//! use odflow_linalg::{Matrix, thin_svd};
//!
//! // 8 observations of 3 correlated variables.
//! let x = Matrix::from_fn(8, 3, |i, j| ((i + 1) * (j + 1)) as f64);
//! let svd = thin_svd(&x).unwrap(); // drops σ below the Gram route's √ε floor
//! assert_eq!(svd.rank(), 1); // perfectly correlated -> rank 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A library reports through return values and metrics, never the terminal.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod backend;
mod center;
mod cov;
mod eigen;
mod error;
mod householder;
mod matrix;
mod row_gram;
mod solve;
mod svd;
mod tridiag;
pub mod vecops;

pub use backend::{truncated_svd, EigenMethod};
pub use center::column_means;
pub use cov::{covariance, scatter};
/// [`eigen_symmetric`] under the name the frozen `e2e_bench` imports; the
/// next `[benchmark]` PR switches that import and this line goes.
pub use eigen::eigen_symmetric as eigen_symmetric_auto;
pub use eigen::{eigen_symmetric, EigenDecomposition};
pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use solve::solve;
pub use svd::{thin_svd, Svd};
