//! Randomized truncated SVD via a Halko-style range finder.
//!
//! The dense path factors an `n x p` data matrix through whichever Gram
//! eigenproblem is small, `p x p` or `n x n` — both out of reach by design
//! once the window is long *and* wide (90 000 OD pairs would mean a 65 GB
//! column Gram, and a week's 2016 bins a row Gram costing `n² p ≈ 4·10¹¹`
//! multiply-adds). But the subspace method only ever needs the top
//! `k ≈ 5-10` eigenflows, and when the data is (numerically) low-rank a
//! *randomized range finder* recovers them from a handful of tall-skinny
//! products: sketch `Y = X Ω` with a seeded Gaussian `Ω`, tighten the
//! range with a few power iterations, and solve a dense eigenproblem on
//! the tiny `(k + oversample)²` projected matrix.
//! Nothing `p x p` is ever materialized, and nothing `n x p` either: the
//! largest intermediates are `(k + oversample) x p` panels, one at a time.
//!
//! ## The window is read where it lies
//!
//! A model fit factors the column-centered window `Xc = X − 1μᵀ` (the
//! paper's zero-mean eigenflows), and at the large-mesh scale a centered
//! copy would be 17 MB. None is made: the products that read the data
//! subtract `μ[j]` from each element as they load it into a cache-sized
//! scratch tile. `x − μ` is the double a centered copy would hold, and
//! every kernel accumulates each output element in one ascending chain
//! from 0.0, so the factorization is the copy's bit for bit. One row-major
//! pass over `x` checks every centered value for finiteness and sums the
//! total energy `‖Xc‖²_F` the fit needs for its unseen tail. Zero means
//! factor `x` itself: `x − 0.0` is `x`.
//!
//! ## Panels are stored vectors-in-rows
//!
//! With `m = k + oversample`, every panel of basis vectors — the sketch
//! `Ωᵀ`, the range basis `Qᵀ` (`m x n`) and the power-iteration panel `Zᵀ`
//! (`m x p`) — keeps one vector per contiguous row, the orientation
//! `Qᵀ Xc` produces anyway, so Gram-Schmidt runs in place on whole rows and
//! nothing `p`-sized is ever transposed (only the `n x m` products `Xc Ω`
//! and `Xc Z` are, into the rows of `Qᵀ`). The panels `m x p` in size are
//! alive one at a time: `Ωᵀ` for the one statement that sketches with it,
//! `Zᵀ` for one power iteration, and the right singular vectors `V` at
//! the end — a fit's `p x k`, the normal subspace only, though σ keeps all
//! `r ≤ m` triplets. The projection `B = Qᵀ Xc` is never stored:
//! it is computed in column bands twice, once folded into the `m x m`
//! matrix `B Bᵀ` and once, after that small eigenproblem, turned straight
//! into its band's rows of `V = Bᵀ W` — one more `m x n x p` product in
//! exchange for the panel. The kernels:
//!
//! * `Matrix::centered_matmul_nt` (`Xc Aᵀ`) for `Xc Ω` and `Xc Z`, rows
//!   dotted with rows, each pair of rows of `X` centered once per k tile
//!   for every row of `A`;
//! * `centered_band_product` (`A Xc`, one column band) for `Qᵀ Xc`, banded
//!   along the 90 000-wide side, each band of `X` centered into a scratch
//!   band that its many rows of `A` then read from cache — behind
//!   `Matrix::matmul_centered` for `Zᵀ` and behind both passes over `B`;
//! * `nt_into` folding each group of `B`'s columns into `B Bᵀ`, and
//!   `tn_block` turning a band of `B` into rows of `V`.
//!
//! The left singular vectors `U = Q W` are never formed: nothing a model
//! reads depends on them.
//!
//! ## The short side: the identity for `Q`
//!
//! With `Q = I` the projection is the window itself, `B = Xc`, and `B Bᵀ`
//! is the `n x n` row Gram `G = Xc Xcᵀ`: the same two banded passes — `G`
//! folded from centered column bands of `X`, then `V = Xcᵀ W Σ⁻¹` band by
//! band — factor the window exactly. The dense path takes
//! this route for a window wider than it is long (24 bins × 90 000 OD
//! pairs: a 24 × 24 eigenproblem, `≈ 5·10⁷` multiply-adds a pass). Its
//! passes are `n` wide where the sketch's are `k + oversample`, so
//! [`crate::EigenMethod::Auto`] takes it only while it costs no more than
//! the sketch would (`row_gram_within_sketch_cost`), and leaves the range
//! finder every window with more bins than that.
//!
//! Reference: Halko, Martinsson & Tropp, *Finding Structure with
//! Randomness* (SIAM Rev. 2011), Algorithms 4.3-4.4 + 5.1. The sketching
//! route into traffic anomography follows Mardani & Giannakis's low-rank
//! tomography line: anomaly maps are recoverable from low-dimensional
//! projections without dense factorizations.
//!
//! ## Determinism
//!
//! The Gaussian sketch is drawn from a `ChaCha8Rng` seeded explicitly by
//! the caller and consumed in one fixed order, every matrix product runs
//! on kernels that accumulate each output element in ascending-k order
//! whatever the banding, and every reduction is combined in chunk order.
//! The whole factorization is therefore **bit-identical for every thread
//! count and every run with the same seed** — the same contract as the
//! dense path, whose row Gram runs on exactly these kernels.

use crate::eigen::eigen_symmetric;
use crate::error::{LinalgError, Result};
use crate::matrix::{
    band_cols, centered_band_product, column_bands, nt_into, tn_block, Matrix, MATMUL_COL_BLOCK,
};
use crate::svd::Svd;
use crate::vecops;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// Options of the randomized range finder, the parameters of
/// [`crate::EigenMethod::RandomizedTruncated`].
///
/// # Examples
///
/// ```
/// use odflow_linalg::{truncated_svd, EigenMethod, Matrix, RandomizedSvdOptions};
///
/// // Data with 3 dominant directions: the sketch recovers their σ.
/// let x = Matrix::from_fn(40, 200, |i, j| {
///     (1 + j % 3) as f64 * ((i * (1 + j % 3)) as f64 * 0.37).sin()
/// });
/// let zeros = [0.0; 200];
/// let RandomizedSvdOptions { oversample, power_iters, seed } = RandomizedSvdOptions::default();
/// let sketch = EigenMethod::RandomizedTruncated { oversample, power_iters, seed };
/// let (rnd, _) = truncated_svd(&x, &zeros, 3, sketch).unwrap();
/// let (exact, _) = truncated_svd(&x, &zeros, 3, EigenMethod::DenseTridiagonal).unwrap();
/// for i in 0..3 {
///     assert!((rnd.sigma[i] - exact.sigma[i]).abs() < 1e-6 * exact.sigma[0]);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedSvdOptions {
    /// Extra sketch columns beyond the requested rank. The projected
    /// problem is `(rank + oversample)²`; 5-10 is the standard choice.
    pub oversample: usize,
    /// Power (subspace) iterations sharpening the range when the spectrum
    /// decays slowly. Each costs two tall-skinny products; 1-2 suffice for
    /// traffic matrices whose top eigenflows dominate.
    pub power_iters: usize,
    /// Seed of the ChaCha8 stream generating the Gaussian test matrix.
    pub seed: u64,
}

impl Default for RandomizedSvdOptions {
    fn default() -> Self {
        RandomizedSvdOptions { oversample: 8, power_iters: 2, seed: DEFAULT_SKETCH_SEED }
    }
}

/// Default seed of the Gaussian sketch stream (used by `Auto` backend
/// selection so unconfigured runs are reproducible).
pub const DEFAULT_SKETCH_SEED: u64 = 0x0DF1_0E16;

/// A truncated thin SVD `Xc ≈ U Σ Vᵀ` of the column-centered
/// `Xc = X − 1μᵀ` (μ = `means`, one per column of `x`; zeros factor `x` as
/// it is), read where `x` lies, keeping (up to) the top `rank +
/// oversample` triplets, and the total energy `‖Xc‖²_F`. Nothing `p x p`
/// (or `n x n`) is formed. The fit's route; see the module docs.
///
/// The first `rank` triplets carry the range-finder's accuracy guarantee;
/// the `oversample` extras are decreasingly accurate probes of the residual
/// spectrum (useful as tail estimates, e.g. for detection thresholds).
/// Triplets whose singular value falls below `√ε · σ_max` (`1.5e-8 ·
/// σ_max`) are dropped: σ is the square root of an eigenvalue of the
/// projected Gram matrix `B Bᵀ`, exact to about `ε · σ_max²`, so a smaller
/// σ is rounding, not data — the floor [`crate::thin_svd`] states for its
/// own Gram route. `V` holds only the leading `min(v_cols, r)` right
/// singular vectors (see [`factor_projection`]); σ keeps every triplet.
///
/// # Errors
///
/// * [`LinalgError::Empty`] for matrices with zero rows/columns or
///   `rank == 0`.
/// * [`LinalgError::NonFinite`] for a non-finite *centered* value — a NaN
///   in `x`, or a column whose mean overflows, say.
/// * Propagates eigensolver errors from the projected problem
///   (practically unreachable for finite data).
pub(crate) fn centered_randomized_svd(
    x: &Matrix,
    means: &[f64],
    rank: usize,
    opts: RandomizedSvdOptions,
    v_cols: usize,
) -> Result<(Svd, f64)> {
    let (n, p) = x.shape();
    if n == 0 || p == 0 || rank == 0 {
        return Err(LinalgError::Empty { op: "centered_randomized_svd" });
    }
    let energy = centered_energy(x, means)?;
    let qt = sketch_range(x, means, rank, opts);
    let svd = factor_projection(Some(&qt), x, means, v_cols)?;
    Ok((svd, energy))
}

/// The range finder: `Qᵀ` (`m x n`, orthonormal rows, `m` the sketch width)
/// spanning what the sketch `opts` captures of the range of `Xc = X − 1μᵀ`
/// for its top `rank` triplets.
fn sketch_range(x: &Matrix, means: &[f64], rank: usize, opts: RandomizedSvdOptions) -> Matrix {
    let m = sketch_width(x.shape(), rank, opts.oversample);

    // Y = Xc Ω with Ω ~ N(0, 1)^{p x m}, drawn from one seeded stream
    // (thread-count independent by construction); Qᵀ starts as Yᵀ.
    let mut qt = x.centered_matmul_nt(means, &gaussian_sketch(m, x.ncols(), opts.seed)).transpose();
    orthonormalize_rows(&mut qt);

    // Power iterations Q <- orth(Xc orth(Xcᵀ Q)) tighten the captured range
    // toward the true top singular subspace.
    for _ in 0..opts.power_iters {
        let mut zt = qt.matmul_centered(x, means); // m x p
        orthonormalize_rows(&mut zt);
        qt = x.centered_matmul_nt(means, &zt).transpose();
        orthonormalize_rows(&mut qt);
    }
    qt
}

/// Columns of the sketch for the top `rank` triplets of an `n x p` matrix:
/// the requested rank plus the oversample, clamped to the exact rank bound
/// where the randomized route degenerates gracefully.
fn sketch_width((n, p): (usize, usize), rank: usize, oversample: usize) -> usize {
    (rank + oversample).clamp(1, n.min(p))
}

/// `true` when [`centered_row_gram_svd`] of an `n x p` window costs no more
/// multiply-adds than the sketch `opts` would for its top `rank` triplets.
///
/// Every pass over the window costs `p` times its width. The sketch makes
/// `2q + 3` passes `m` wide (`q` power iterations, `m` its width): `Xc Ω`,
/// two per power iteration, and `B = Qᵀ Xc` twice, once into `B Bᵀ` and
/// once into `V`. The row Gram makes two about `n` wide: `G`, then `V` over
/// its up to `n − 1` triplets. So the row Gram wins while `2n ≤ (2q + 3) m`
/// — `n ≤ 63` at `k = 10` and the default options, `n ≤ 42` at `k = 4`.
/// The count takes the row Gram's `V` pass as `n − 1` wide; a fit's is `k`
/// wide (it builds `V` for its top `k` axes only), so the count overstates
/// the row Gram, and the rule leaves it a wider margin than the figures
/// below, which were taken with the wide pass.
///
/// Measured on 2 vCPUs at `p = 20 000` (best of three fits), the row Gram
/// took 0.52× the sketch's time at `n = 64, k = 10` and 0.57× at `n = 48,
/// k = 4` on the default pool (0.82× and 0.91× on one thread), and broke
/// even near `n = 90` and `n = 70` (one thread: 85 and 52): the sketch's
/// passes run slower per
/// multiply-add than the row Gram's and it draws `p·m` Gaussians besides,
/// so the count leaves the exact route a margin rather than a loss. Past
/// the break-even the row Gram's `O(n² p)` grows away from the sketch's
/// `O(n m p)`: 5.2× the sketch's time at `n = 256, k = 10`.
pub(crate) fn row_gram_within_sketch_cost(
    shape: (usize, usize),
    rank: usize,
    opts: RandomizedSvdOptions,
) -> bool {
    2 * shape.0 <= (2 * opts.power_iters + 3) * sketch_width(shape, rank, opts.oversample)
}

/// The exact thin SVD of the column-centered `Xc = X − 1μᵀ` (μ = `means`)
/// through its `n x n` row Gram `G = Xc Xcᵀ`, read where `x` lies, and its
/// energy `Σ σ²`: the range finder's projection with the identity for `Q`
/// — `B = Xc`, `B Bᵀ = G` — so `eigen_symmetric(G)` gives σ² and the left
/// singular vectors `W`, and one banded pass gives `V = Xcᵀ W Σ⁻¹` for the
/// leading `min(v_cols, r)` triplets. Triplets below `√ε · σ_max` are
/// dropped, as on the randomized route; what remains is every direction
/// the data has, so the energy is their `Σ σ²`. The finiteness check is `G`'s diagonal: `G[i][i] = Σ_j
/// (x_ij − μ_j)²` is a sum of squares, which no NaN or infinite centered
/// value leaves finite, and `eigen_symmetric` refuses a non-finite input.
///
/// # Errors
///
/// [`LinalgError::Empty`] for a matrix with zero rows or columns;
/// [`LinalgError::NonFinite`] for a non-finite centered value.
pub(crate) fn centered_row_gram_svd(
    x: &Matrix,
    means: &[f64],
    v_cols: usize,
) -> Result<(Svd, f64)> {
    if x.nrows() == 0 || x.ncols() == 0 {
        return Err(LinalgError::Empty { op: "row_gram_svd" });
    }
    let svd = factor_projection(None, x, means, v_cols)?;
    let energy = svd.sigma.iter().map(|s| s * s).sum();
    Ok((svd, energy))
}

/// The SVD of `Xc = X − 1μᵀ` restricted to the range of the orthonormal
/// rows of `qt` (`Qᵀ`, `m x n`), or of `Xc` itself when `qt` is `None` (the
/// identity): the `m x m` eigenproblem of `B Bᵀ` for `B = Qᵀ Xc`, whose
/// eigenvalues are σ² and whose eigenvectors `W` rotate `Q` onto the left
/// singular vectors, then `V = Bᵀ W Σ⁻¹`. Triplets with σ below
/// `√ε · σ_max` are dropped.
///
/// σ keeps every remaining triplet; `V` is built for the leading
/// `min(v_cols, r)` only — the banded pass over the window rotates that
/// many columns of `W`. Each element of `V` is its own ascending chain and
/// each column's norm sums that column alone, so the columns built are the
/// bits of the whole panel's leading columns.
fn factor_projection(qt: Option<&Matrix>, x: &Matrix, means: &[f64], v_cols: usize) -> Result<Svd> {
    let p = x.ncols();
    let eig = eigen_symmetric(&projected_gram(qt, x, means))?;

    let sigma_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(0.0).sqrt();
    if sigma_max == 0.0 {
        // All-zero input (or a sketch that annihilated it): degenerate SVD,
        // mirroring `thin_svd`'s convention.
        return Ok(Svd { sigma: vec![0.0], v: Matrix::zeros(p, v_cols.min(1)) });
    }
    let cutoff = f64::EPSILON.sqrt() * sigma_max;
    let mut sigma = Vec::new();
    let mut keep = Vec::new();
    for (i, &l) in eig.eigenvalues.iter().enumerate() {
        let s = l.max(0.0).sqrt();
        if s > cutoff {
            sigma.push(s);
            keep.push(i);
        }
    }
    let w_lead = eig.eigenvectors.select_cols(&keep[..keep.len().min(v_cols)])?;

    // V = Bᵀ W Σ^{-1} (p x r, r = the columns of `w_lead`), re-normalized
    // per column to absorb rounding drift in the small singular values —
    // the same guard `thin_svd` uses. Under the normalization the Σ^{-1}
    // rescale cancels analytically (each raw column of Bᵀ W has norm σ_j),
    // so only the exact column norms are applied: two row-major passes
    // over the panel — one map_reduce accumulating all r squared norms
    // (per-column partials summed in chunk order, so the reduction is
    // deterministic) and one parallel scale — instead of 2r strided
    // per-column sweeps.
    let mut v = projected_rotation(qt, x, means, &w_lead);
    let r = v.ncols();
    let vp = v.nrows();
    let data = v.as_mut_slice();
    debug_assert_eq!(data.len(), vp * r);
    let norms_sq = odflow_par::map_reduce(
        vp,
        V_COL_BLOCK,
        |rows| {
            let mut acc = vec![0.0f64; r];
            for i in rows {
                let row = &data[i * r..(i + 1) * r];
                for (a, &val) in acc.iter_mut().zip(row) {
                    *a += val * val;
                }
            }
            acc
        },
        |mut acc, block| {
            for (a, b) in acc.iter_mut().zip(&block) {
                *a += b;
            }
            acc
        },
    )
    .unwrap_or_else(|| vec![0.0; r]);
    let inv_norms: Vec<f64> = norms_sq
        .iter()
        .map(|&ns| {
            let norm = ns.sqrt();
            if norm > 1e-300 {
                1.0 / norm
            } else {
                1.0
            }
        })
        .collect();
    // Row blocks dispatch onto the persistent pool; each block applies the
    // same per-column inverse norms, so the rescale is order-free.
    odflow_par::parallel_chunks(data, V_COL_BLOCK * r, |_, rows| {
        for row in rows.chunks_exact_mut(r) {
            for (val, &inv) in row.iter_mut().zip(&inv_norms) {
                *val *= inv;
            }
        }
    });
    Ok(Svd { sigma, v })
}

/// `‖X − 1μᵀ‖²_F` in one row-major pass over `x`, which is also the check
/// that every centered value is finite. The sum runs in exactly the order
/// [`Matrix::frobenius_norm`] takes over a centered copy, and is squared
/// back from that norm's root, so the energy is the bits the fit has
/// always recorded.
fn centered_energy(x: &Matrix, means: &[f64]) -> Result<f64> {
    let mut sum = 0.0;
    let mut finite = true;
    for row in x.rows_iter() {
        for (&v, &mu) in row.iter().zip(means) {
            let c = v - mu;
            finite &= c.is_finite();
            sum += c * c;
        }
    }
    if !finite {
        return Err(LinalgError::NonFinite { op: "centered_randomized_svd" });
    }
    let norm = sum.sqrt();
    Ok(norm * norm)
}

/// Columns of `B` computed, then folded into `B Bᵀ`, per round of
/// [`projected_gram`]: eight column bands, so a round's bands share out
/// over the pool and its `m x 8192` slice of `B` (1.2 MB at `m = 18`, 1.5
/// MB for the row Gram of 24 bins) stays cache-sized.
const GRAM_GROUP_COLS: usize = 8 * MATMUL_COL_BLOCK;

/// Columns `cols` of `B = Qᵀ (X − 1μᵀ)` — of `X − 1μᵀ` itself when `qt` is
/// `None` — written over `out`, one slice per row of `B`.
fn project_band(
    qt: Option<&Matrix>,
    x: &Matrix,
    means: &[f64],
    cols: Range<usize>,
    out: &mut [&mut [f64]],
) {
    match qt {
        Some(qt) => centered_band_product(qt, x, means, cols, out),
        None => {
            for (row, dst) in x.rows_iter().zip(out) {
                let centered = row[cols.clone()].iter().zip(&means[cols.clone()]);
                for (d, (&v, &mu)) in dst.iter_mut().zip(centered) {
                    *d = v - mu;
                }
            }
        }
    }
}

/// `B Bᵀ` (`m x m`) for `B = Qᵀ (X − 1μᵀ)` (`B = X − 1μᵀ` when `qt` is
/// `None`), without storing `B`: each round computes [`GRAM_GROUP_COLS`]
/// columns of it, one column band per task, then folds them into the
/// result with row bands of it as tasks. Every element continues one
/// ascending chain over `B`'s columns from 0.0, so the result is
/// bit-identical to `B.matmul_nt(&B)`.
fn projected_gram(qt: Option<&Matrix>, x: &Matrix, means: &[f64]) -> Matrix {
    let (m, p) = (qt.map_or(x.nrows(), Matrix::nrows), x.ncols());
    let mut gram = Matrix::zeros(m, m);
    let mut group = vec![0.0; m * GRAM_GROUP_COLS.min(p)];
    for g0 in (0..p).step_by(GRAM_GROUP_COLS) {
        let cols = g0..(g0 + GRAM_GROUP_COLS).min(p);
        let b = &mut group[..m * cols.len()];
        let mut bands = column_bands(b, cols.len());
        odflow_par::parallel_chunks(&mut bands, 1, |c, band| {
            project_band(qt, x, means, band_cols(c, cols.clone()), &mut band[0]);
        });
        nt_into(b, None, b, cols.len(), gram.as_mut_slice(), false);
    }
    gram
}

/// `V = Bᵀ W` (`p x r`) for `B = Qᵀ (X − 1μᵀ)` (`B = X − 1μᵀ` when `qt` is
/// `None`), without storing `B`: each task recomputes one column band of
/// `B` and writes that band's rows of `V`, every element accumulating over
/// `B`'s rows in ascending order from 0.0 — the bits of `B.matmul_tn(W)`.
fn projected_rotation(qt: Option<&Matrix>, x: &Matrix, means: &[f64], w: &Matrix) -> Matrix {
    let (m, p, r) = (w.nrows(), x.ncols(), w.ncols());
    let mut v = Matrix::zeros(p, r);
    odflow_par::parallel_chunks(v.as_mut_slice(), MATMUL_COL_BLOCK * r, |c, v_rows| {
        let cols = band_cols(c, 0..p);
        let width = cols.len();
        let mut b = vec![0.0; m * width];
        let mut rows: Vec<&mut [f64]> = b.chunks_mut(width).collect();
        project_band(qt, x, means, cols, &mut rows);
        tn_block(&b, width, w.as_slice(), r, 0, v_rows);
    });
    v
}

/// Rows per parallel block when rescaling/normalizing the `p x r` right
/// singular panel; fixed so reductions are deterministic.
const V_COL_BLOCK: usize = 4096;

/// The transpose of a `p x m` matrix Ω of standard normal draws from one
/// seeded ChaCha8 stream: the stream fills Ω in row-major order, draw
/// `i` being `Ω[i / m][i % m]`, and lands here at row `i % m`, column
/// `i / m`. Box-Muller over the shim's 53-bit uniform doubles.
fn gaussian_sketch(m: usize, p: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Matrix::zeros(m, p);
    let data = out.as_mut_slice();
    let mut i = 0;
    while i < data.len() {
        let (z0, z1) = box_muller(&mut rng);
        data[i % m * p + i / m] = z0;
        if i + 1 < data.len() {
            data[(i + 1) % m * p + (i + 1) / m] = z1;
        }
        i += 2;
    }
    out
}

/// One Box-Muller pair of independent standard normals.
fn box_muller(rng: &mut impl RngCore) -> (f64, f64) {
    // u1 ∈ (0, 1]: the shim's uniform is [0, 1), so flip it to keep ln
    // finite. u2 ∈ [0, 1) is fine as an angle.
    let u1 = 1.0 - uniform_f64(rng);
    let u2 = uniform_f64(rng);
    let radius = (-2.0 * u1.ln()).sqrt();
    let angle = std::f64::consts::TAU * u2;
    (radius * angle.cos(), radius * angle.sin())
}

/// Uniform draw in [0, 1) with 53 bits of precision.
fn uniform_f64(rng: &mut impl RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Orthonormalizes the rows of `m` in place by modified Gram-Schmidt with
/// one re-orthogonalization pass. Numerically dead rows (norm below
/// `1e-12` of the largest seen) are zeroed: they contribute zero rows to
/// the projected problem and are dropped by the σ cutoff later.
fn orthonormalize_rows(m: &mut Matrix) {
    let width = m.ncols();
    let mut max_norm = 0.0f64;
    for j in 0..m.nrows() {
        let (fixed, rest) = m.as_mut_slice().split_at_mut(j * width);
        let row = &mut rest[..width];
        // Two MGS passes against the already-fixed rows keep the basis
        // orthogonal to working precision even for ill-conditioned panels.
        for _ in 0..2 {
            for basis in fixed.chunks_exact(width) {
                let coeff = vecops::dot(basis, row);
                vecops::axpy(-coeff, basis, row);
            }
        }
        let norm = vecops::norm(row);
        max_norm = max_norm.max(norm);
        if norm > 1e-12 * max_norm.max(1e-300) {
            vecops::scale(row, 1.0 / norm);
        } else {
            row.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::thin_svd;

    /// The range finder on `x` as it is (zero means), `V` for every
    /// triplet.
    fn uncentered_svd(x: &Matrix, rank: usize, opts: RandomizedSvdOptions) -> Result<Svd> {
        let zeros = vec![0.0; x.ncols()];
        centered_randomized_svd(x, &zeros, rank, opts, usize::MAX).map(|(svd, _)| svd)
    }

    fn low_rank_plus_noise(n: usize, p: usize, rank: usize, noise: f64) -> Matrix {
        Matrix::from_fn(n, p, |i, j| {
            let mut v = 0.0;
            for r in 0..rank {
                let amp = 100.0 / (1.0 + r as f64);
                v +=
                    amp * ((i * (r + 1)) as f64 * 0.21).sin() * ((j * (r + 2)) as f64 * 0.13).cos();
            }
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            v + noise * ((z as f64 / u64::MAX as f64) - 0.5)
        })
    }

    /// The factorization as it was before panels moved to rows, kept as the
    /// oracle the restructured one must reproduce bit for bit: Ω filled
    /// row-major `p x m` and held to the end, `p x m` panels whose columns
    /// are copied out, orthonormalized and copied back, and a materialized
    /// transpose around every product that needs one.
    fn parent_randomized_thin_svd(x: &Matrix, rank: usize, opts: RandomizedSvdOptions) -> Svd {
        fn gaussian_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = Matrix::zeros(rows, cols);
            let data = out.as_mut_slice();
            let mut i = 0;
            while i < data.len() {
                let (z0, z1) = box_muller(&mut rng);
                data[i] = z0;
                if i + 1 < data.len() {
                    data[i + 1] = z1;
                }
                i += 2;
            }
            out
        }
        fn orthonormalize_columns(m: &mut Matrix) {
            let k = m.ncols();
            let mut cols: Vec<Vec<f64>> = (0..k).map(|j| m.col(j).unwrap()).collect();
            let mut max_norm = 0.0f64;
            for j in 0..k {
                for _ in 0..2 {
                    for i in 0..j {
                        let (head, tail) = cols.split_at_mut(j);
                        let coeff = vecops::dot(&head[i], &tail[0]);
                        vecops::axpy(-coeff, &head[i], &mut tail[0]);
                    }
                }
                let norm = vecops::norm(&cols[j]);
                max_norm = max_norm.max(norm);
                if norm > 1e-12 * max_norm.max(1e-300) {
                    vecops::scale(&mut cols[j], 1.0 / norm);
                } else {
                    cols[j].iter_mut().for_each(|v| *v = 0.0);
                }
            }
            for (j, col) in cols.iter().enumerate() {
                m.set_col(j, col).unwrap();
            }
        }

        let (n, p) = x.shape();
        let m = (rank + opts.oversample).clamp(1, n.min(p));
        let omega = gaussian_matrix(p, m, opts.seed);
        let mut q = x.matmul(&omega).unwrap();
        orthonormalize_columns(&mut q);
        for _ in 0..opts.power_iters {
            let mut z = q.transpose().matmul(x).unwrap().transpose();
            orthonormalize_columns(&mut z);
            q = x.matmul(&z).unwrap();
            orthonormalize_columns(&mut q);
        }
        let b = q.transpose().matmul(x).unwrap();
        let small = b.matmul(&b.transpose()).unwrap();
        let eig = eigen_symmetric(&small).unwrap();
        let sigma_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(0.0).sqrt();
        assert!(sigma_max > 0.0, "the oracle is for data the sketch does not annihilate");
        let mut sigma = Vec::new();
        let mut keep = Vec::new();
        for (i, &l) in eig.eigenvalues.iter().enumerate() {
            let s = l.max(0.0).sqrt();
            if s > 1e-12 * sigma_max {
                sigma.push(s);
                keep.push(i);
            }
        }
        let w = eig.eigenvectors.select_cols(&keep).unwrap();
        let mut v = b.transpose().matmul(&w).unwrap();
        // Column norms summed per V_COL_BLOCK-row block, blocks combined in
        // order — the reduction the shipped code runs through `map_reduce`.
        let r = sigma.len();
        let mut norms_sq: Option<Vec<f64>> = None;
        for block in v.as_slice().chunks(V_COL_BLOCK * r) {
            let mut acc = vec![0.0f64; r];
            for row in block.chunks_exact(r) {
                for (a, &val) in acc.iter_mut().zip(row) {
                    *a += val * val;
                }
            }
            norms_sq = Some(match norms_sq {
                None => acc,
                Some(mut sum) => {
                    for (s, a) in sum.iter_mut().zip(&acc) {
                        *s += a;
                    }
                    sum
                }
            });
        }
        let norms_sq = norms_sq.unwrap();
        for row in v.as_mut_slice().chunks_exact_mut(r) {
            for (val, &ns) in row.iter_mut().zip(&norms_sq) {
                let norm = ns.sqrt();
                *val *= if norm > 1e-300 { 1.0 / norm } else { 1.0 };
            }
        }
        Svd { sigma, v }
    }

    #[test]
    fn row_panels_reproduce_the_column_panel_factorization_bit_for_bit() {
        // (n, p, rank, oversample, power_iters): tall and wide data, odd n,
        // a sketch clamped by n (n < rank + oversample) and by p, a single
        // sketch column, no power iterations, and a p wide enough that
        // `Qᵀ X` is banded by columns and V is normalized in several blocks.
        let shapes = [
            (40usize, 200usize, 3usize, 8usize, 2usize),
            (25, 61, 4, 8, 2),
            (7, 120, 5, 8, 2),
            (60, 9, 4, 8, 1),
            (31, 33, 1, 0, 3),
            (12, 50, 2, 3, 0),
            (9, 2 * V_COL_BLOCK + 17, 3, 4, 1),
        ];
        for (case, &(n, p, rank, oversample, power_iters)) in shapes.iter().enumerate() {
            let x = low_rank_plus_noise(n, p, rank + 1, 0.3);
            let opts = RandomizedSvdOptions { oversample, power_iters, seed: 11 + case as u64 };
            let want = parent_randomized_thin_svd(&x, rank, opts);
            for threads in [1usize, 2, 5] {
                let got = odflow_par::with_thread_limit(threads, || {
                    uncentered_svd(&x, rank, opts).unwrap()
                });
                let tag = format!("case {case} ({n} x {p}), threads={threads}");
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.sigma), bits(&want.sigma), "sigma, {tag}");
                assert_eq!(got.v.shape(), want.v.shape(), "{tag}");
                assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()), "v, {tag}");
            }
        }
    }

    /// The fit's route before it read the window where it lies: a centered
    /// copy of `x`, then the range finder on the public
    /// kernels with `B = Qᵀ Xc` stored whole (`m x p`) beside `V`, and the
    /// energy from the copy's Frobenius norm. Kept as the oracle the
    /// copy-free route must reproduce bit for bit. (Its rank cutoff is the
    /// shipped `√ε` floor.)
    fn materialized_centered_svd(
        x: &Matrix,
        rank: usize,
        opts: RandomizedSvdOptions,
    ) -> (Svd, f64) {
        let xc = crate::center::centered_copy(x);
        let (n, p) = xc.shape();
        let m = (rank + opts.oversample).clamp(1, n.min(p));
        let mut qt = gaussian_sketch(m, p, opts.seed).matmul_nt(&xc).unwrap();
        orthonormalize_rows(&mut qt);
        for _ in 0..opts.power_iters {
            let mut zt = qt.matmul(&xc).unwrap();
            orthonormalize_rows(&mut zt);
            qt = zt.matmul_nt(&xc).unwrap();
            orthonormalize_rows(&mut qt);
        }
        let b = qt.matmul(&xc).unwrap();
        let eig = eigen_symmetric(&b.matmul_nt(&b).unwrap()).unwrap();
        let sigma_max = eig.eigenvalues[0].max(0.0).sqrt();
        assert!(sigma_max > 0.0, "the oracle is for data the sketch does not annihilate");
        let (sigma, keep): (Vec<f64>, Vec<usize>) = eig
            .eigenvalues
            .iter()
            .enumerate()
            .map(|(i, &l)| (l.max(0.0).sqrt(), i))
            .filter(|&(s, _)| s > f64::EPSILON.sqrt() * sigma_max)
            .unzip();
        let w = eig.eigenvectors.select_cols(&keep).unwrap();
        let mut v = b.matmul_tn(&w).unwrap();
        normalize_columns(&mut v);
        let f = xc.frobenius_norm();
        (Svd { sigma, v }, f * f)
    }

    /// Scales every column of `v` to unit norm, the norms summed per
    /// `V_COL_BLOCK`-row block and the blocks combined in order.
    fn normalize_columns(v: &mut Matrix) {
        let r = v.ncols();
        let norms_sq = v
            .as_slice()
            .chunks(V_COL_BLOCK * r)
            .map(|block| {
                let mut acc = vec![0.0f64; r];
                for row in block.chunks_exact(r) {
                    for (a, &val) in acc.iter_mut().zip(row) {
                        *a += val * val;
                    }
                }
                acc
            })
            .reduce(|mut sum, acc| {
                sum.iter_mut().zip(&acc).for_each(|(s, a)| *s += a);
                sum
            })
            .unwrap();
        for row in v.as_mut_slice().chunks_exact_mut(r) {
            for (val, &ns) in row.iter_mut().zip(&norms_sq) {
                let norm = ns.sqrt();
                *val *= if norm > 1e-300 { 1.0 / norm } else { 1.0 };
            }
        }
    }

    /// Asserts `narrow` is `full` with `V` cut to its leading `min(v_cols,
    /// r)` columns, bit for bit: σ whole, and every column of `V` that was
    /// built equal to the whole panel's.
    fn assert_leading_loadings(full: &Svd, narrow: &Svd, v_cols: usize, tag: &str) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&narrow.sigma), bits(&full.sigma), "sigma, {tag}");
        let lead: Vec<usize> = (0..v_cols.min(full.rank())).collect();
        let want = full.v.select_cols(&lead).unwrap();
        assert_eq!(narrow.v.shape(), want.shape(), "{tag}");
        assert_eq!(bits(narrow.v.as_slice()), bits(want.as_slice()), "v, {tag}");
    }

    /// Asserts the copy-free route on `x` equals the materialized oracle
    /// bit for bit — σ, V and the energy — at thread limits 1, 2 and 5,
    /// and that a `V` of the leading `rank` columns only is that panel's.
    fn assert_copy_free_matches(x: &Matrix, rank: usize, opts: RandomizedSvdOptions, tag: &str) {
        let (want, want_energy) = materialized_centered_svd(x, rank, opts);
        let means = crate::center::column_means(x);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 2, 5] {
            let ((got, energy), (narrow, _)) = odflow_par::with_thread_limit(threads, || {
                (
                    centered_randomized_svd(x, &means, rank, opts, usize::MAX).unwrap(),
                    centered_randomized_svd(x, &means, rank, opts, rank).unwrap(),
                )
            });
            let tag = format!("{tag}, threads={threads}");
            assert_eq!(bits(&got.sigma), bits(&want.sigma), "sigma, {tag}");
            assert_eq!(got.v.shape(), want.v.shape(), "{tag}");
            assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()), "v, {tag}");
            assert_eq!(energy.to_bits(), want_energy.to_bits(), "energy, {tag}");
            assert_leading_loadings(&got, &narrow, rank, &format!("narrowed, {tag}"));
        }
    }

    /// [`low_rank_plus_noise`] on column levels of 50-550, so centering has
    /// real work to do.
    fn leveled(n: usize, p: usize, rank: usize) -> Matrix {
        let mut x = low_rank_plus_noise(n, p, rank, 0.3);
        for row in x.as_mut_slice().chunks_exact_mut(p) {
            for (j, v) in row.iter_mut().enumerate() {
                *v += 50.0 * (1 + j % 11) as f64;
            }
        }
        x
    }

    /// The column counts where the copy-free route's tiling changes: the
    /// `matmul_nt` k tile (256), the column band (`MATMUL_COL_BLOCK`), and
    /// a round of the Gram fold (`GRAM_GROUP_COLS`), each below, at and
    /// above; several bands with a ragged last one; and `p < n`.
    const BOUNDARY_WIDTHS: [usize; 11] = [
        255,
        256,
        257,
        MATMUL_COL_BLOCK - 1,
        MATMUL_COL_BLOCK,
        MATMUL_COL_BLOCK + 1,
        3 * MATMUL_COL_BLOCK + 5,
        GRAM_GROUP_COLS - 1,
        GRAM_GROUP_COLS,
        GRAM_GROUP_COLS + 1,
        9,
    ];

    #[test]
    fn copy_free_route_reproduces_the_materialized_centering_bit_for_bit() {
        // (n, rank, oversample, power_iters) per width: odd and even n, a
        // sketch clamped by n (n < rank + oversample), oversample 0, and
        // zero to three power iterations.
        let shapes = [
            (9, 3, 8, 2),
            (10, 3, 8, 0),
            (11, 4, 8, 1),
            (7, 5, 8, 3),
            (12, 4, 8, 2),
            (13, 2, 0, 2),
            (24, 10, 8, 2),
            (5, 2, 8, 1),
            (6, 3, 0, 3),
            (17, 4, 8, 0),
            (40, 4, 8, 1),
        ];
        for (case, (&p, &(n, rank, oversample, power_iters))) in
            BOUNDARY_WIDTHS.iter().zip(&shapes).enumerate()
        {
            let x = leveled(n, p, rank + 1);
            let opts = RandomizedSvdOptions { oversample, power_iters, seed: 31 + case as u64 };
            assert_copy_free_matches(&x, rank, opts, &format!("case {case} ({n} x {p})"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn copy_free_route_matches_the_materialized_centering_on_random_shapes(
            n in 2usize..30,
            width in proptest::prelude::any::<proptest::sample::Index>(),
            rank in 1usize..8,
            oversample in 0usize..10,
            power_iters in 0usize..4,
            seed in 0u64..1000,
        ) {
            let p = BOUNDARY_WIDTHS[width.index(BOUNDARY_WIDTHS.len())];
            let x = leveled(n, p, rank.min(n));
            let opts = RandomizedSvdOptions { oversample, power_iters, seed };
            assert_copy_free_matches(&x, rank, opts, &format!("{n} x {p}, rank {rank}"));
        }
    }

    /// The row-Gram route on a centered copy and the public kernels: `G =
    /// Xc Xcᵀ` by `matmul_nt`, `W` its kept eigenvectors, `V = Xcᵀ W` by
    /// `matmul_tn` normalized per column, the energy `Σ σ²`. Kept as the
    /// oracle the copy-free route must reproduce bit for bit.
    fn materialized_row_gram_svd(x: &Matrix) -> (Svd, f64) {
        let xc = crate::center::centered_copy(x);
        let eig = eigen_symmetric(&xc.matmul_nt(&xc).unwrap()).unwrap();
        let sigma_max = eig.eigenvalues[0].max(0.0).sqrt();
        if sigma_max == 0.0 {
            return (Svd { sigma: vec![0.0], v: Matrix::zeros(xc.ncols(), 1) }, 0.0);
        }
        let (sigma, keep): (Vec<f64>, Vec<usize>) = eig
            .eigenvalues
            .iter()
            .enumerate()
            .map(|(i, &l)| (l.max(0.0).sqrt(), i))
            .filter(|&(s, _)| s > f64::EPSILON.sqrt() * sigma_max)
            .unzip();
        let w = eig.eigenvectors.select_cols(&keep).unwrap();
        let mut v = xc.matmul_tn(&w).unwrap();
        normalize_columns(&mut v);
        let energy = sigma.iter().map(|s| s * s).sum();
        (Svd { sigma, v }, energy)
    }

    #[test]
    fn row_gram_reads_the_window_where_it_lies_bit_for_bit() {
        // Both sides of the column band (`MATMUL_COL_BLOCK`) and of a round
        // of the Gram fold (`GRAM_GROUP_COLS`), at odd and even bin counts
        // down to two; thread limits 1, 2 and 5 on each.
        let widths = [
            MATMUL_COL_BLOCK - 1,
            MATMUL_COL_BLOCK,
            MATMUL_COL_BLOCK + 1,
            GRAM_GROUP_COLS - 1,
            GRAM_GROUP_COLS,
            GRAM_GROUP_COLS + 1,
        ];
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (case, (&p, n)) in widths.iter().zip([2usize, 24, 17, 9, 2, 24]).enumerate() {
            let x = leveled(n, p, 5.min(n));
            let means = crate::center::column_means(&x);
            let (want, want_energy) = materialized_row_gram_svd(&x);
            assert!(want.rank() >= n.min(5) - 1, "case {case}: σ = {:?}", want.sigma);
            for threads in [1usize, 2, 5] {
                let (got, energy) = odflow_par::with_thread_limit(threads, || {
                    centered_row_gram_svd(&x, &means, usize::MAX).unwrap()
                });
                let tag = format!("case {case} ({n} x {p}), threads={threads}");
                assert_eq!(bits(&got.sigma), bits(&want.sigma), "sigma, {tag}");
                assert_eq!(got.v.shape(), want.v.shape(), "{tag}");
                assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()), "v, {tag}");
                assert_eq!(energy.to_bits(), want_energy.to_bits(), "energy, {tag}");
                // A fit's `V`: one column, and four — more than the
                // two-bin windows have.
                for v_cols in [1, 4] {
                    let (narrow, narrow_energy) = odflow_par::with_thread_limit(threads, || {
                        centered_row_gram_svd(&x, &means, v_cols).unwrap()
                    });
                    assert_eq!(narrow_energy.to_bits(), energy.to_bits(), "energy, {tag}");
                    assert_leading_loadings(&got, &narrow, v_cols, &format!("{v_cols}, {tag}"));
                }
            }
        }
    }

    #[test]
    fn row_gram_of_a_constant_window_is_the_zero_triplet() {
        let x = Matrix::from_fn(7, MATMUL_COL_BLOCK + 3, |_, j| 40.0 + j as f64);
        let means = crate::center::column_means(&x);
        let (svd, energy) = centered_row_gram_svd(&x, &means, 4).unwrap();
        assert_eq!(svd.sigma, vec![0.0]);
        assert_eq!(svd.v.shape(), (MATMUL_COL_BLOCK + 3, 1));
        assert_eq!(energy, 0.0);
    }

    #[test]
    fn row_gram_refuses_non_finite_centered_values() {
        let mut x = leveled(6, 700, 3);
        let means = crate::center::column_means(&x);
        let refused = |x: &Matrix| centered_row_gram_svd(x, &means, 4);
        x[(4, 650)] = f64::INFINITY;
        assert!(matches!(refused(&x), Err(LinalgError::NonFinite { .. })));
        x[(4, 650)] = f64::NAN;
        assert!(matches!(refused(&x), Err(LinalgError::NonFinite { .. })));
        assert!(matches!(refused(&Matrix::zeros(0, 700)), Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn matches_dense_on_low_rank_data() {
        let x = low_rank_plus_noise(60, 300, 4, 1e-6);
        let rnd = uncentered_svd(&x, 4, RandomizedSvdOptions::default()).unwrap();
        let dense = thin_svd(&x, 0.0).unwrap();
        for i in 0..4 {
            let rel = (rnd.sigma[i] - dense.sigma[i]).abs() / dense.sigma[0];
            assert!(rel < 1e-8, "σ_{i}: randomized {} vs dense {}", rnd.sigma[i], dense.sigma[i]);
        }
    }

    #[test]
    fn wide_matrix_never_materializes_p_square() {
        // p >> n: the regime the backend exists for. Correctness is checked
        // against the dense route (still feasible at this test size).
        let x = low_rank_plus_noise(24, 900, 5, 1e-3);
        let rnd = uncentered_svd(&x, 5, RandomizedSvdOptions::default()).unwrap();
        let dense = thin_svd(&x, 0.0).unwrap();
        for i in 0..5 {
            let rel = (rnd.sigma[i] - dense.sigma[i]).abs() / dense.sigma[0];
            assert!(rel < 1e-6, "σ_{i} rel err {rel}");
        }
        // Top right singular vectors agree up to sign.
        for i in 0..3 {
            let a = rnd.v.col(i).unwrap();
            let b = dense.v.col(i).unwrap();
            let cosine = vecops::dot(&a, &b).abs();
            assert!(cosine > 1.0 - 1e-6, "v_{i} cosine {cosine}");
        }
    }

    #[test]
    fn u_v_orthonormal_and_sigma_sorted() {
        // The left singular vectors `U = Q W` (`W` orthogonal) are
        // orthonormal exactly when the range basis `Q` is.
        let x = low_rank_plus_noise(50, 240, 6, 0.5);
        let opts = RandomizedSvdOptions::default();
        let svd = uncentered_svd(&x, 6, opts).unwrap();
        let r = svd.rank();
        let qt = sketch_range(&x, &vec![0.0; x.ncols()], 6, opts);
        let qqt = qt.matmul_nt(&qt).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        assert!(qqt.approx_eq(&Matrix::identity(qt.nrows()), 1e-8), "Q^T Q != I");
        assert!(vtv.approx_eq(&Matrix::identity(r), 1e-8), "V^T V != I");
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn same_seed_bit_identical_different_seed_close() {
        let x = low_rank_plus_noise(40, 200, 3, 1e-4);
        let opts = RandomizedSvdOptions::default();
        let a = uncentered_svd(&x, 3, opts).unwrap();
        let b = uncentered_svd(&x, 3, opts).unwrap();
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.v.as_slice(), b.v.as_slice());

        let c = uncentered_svd(&x, 3, RandomizedSvdOptions { seed: 99, ..opts }).unwrap();
        for i in 0..3 {
            assert!((a.sigma[i] - c.sigma[i]).abs() < 1e-8 * a.sigma[0]);
        }
    }

    #[test]
    fn thread_count_invariant() {
        let x = low_rank_plus_noise(48, 400, 4, 0.1);
        let opts = RandomizedSvdOptions::default();
        let serial = odflow_par::with_thread_limit(1, || uncentered_svd(&x, 4, opts).unwrap());
        for &threads in &[2usize, 8, 64] {
            let par =
                odflow_par::with_thread_limit(threads, || uncentered_svd(&x, 4, opts).unwrap());
            assert_eq!(par.sigma, serial.sigma, "threads={threads}");
            assert_eq!(par.v.as_slice(), serial.v.as_slice(), "threads={threads}");
        }
    }

    /// `X V_k V_kᵀ`: `x` projected onto its top `k` axes.
    fn project_rank(x: &Matrix, svd: &Svd, k: usize) -> Matrix {
        let vk = svd.v.select_cols(&(0..k).collect::<Vec<_>>()).unwrap();
        x.matmul(&vk).unwrap().matmul(&vk.transpose()).unwrap()
    }

    #[test]
    fn exact_low_rank_recovered() {
        // Rank-2 exactly: the sketch captures the whole range, so the
        // rank-2 projection is exact to rounding, and `VᵀXᵀXV = diag(σ²)`.
        let x = Matrix::from_fn(30, 150, |i, j| {
            (i as f64 + 1.0) * (j as f64 * 0.1).sin() + (i as f64 * 0.3).cos() * (j as f64 + 1.0)
        });
        let svd = uncentered_svd(&x, 2, RandomizedSvdOptions::default()).unwrap();
        let xr = project_rank(&x, &svd, 2);
        assert!(xr.approx_eq(&x, 1e-7 * x.max_abs()), "rank-2 reconstruction off");
        let xv = x.matmul(&svd.v.select_cols(&[0, 1]).unwrap()).unwrap();
        let sq = Matrix::from_diag(&[svd.sigma[0].powi(2), svd.sigma[1].powi(2)]);
        assert!(xv.transpose().matmul(&xv).unwrap().approx_eq(&sq, 1e-9 * sq[(0, 0)]));
    }

    #[test]
    fn exact_rank_two_keeps_two_triplets() {
        // Rank-2 variation on column levels of 1e6 and up: centering leaves
        // rounding at about 1e-10 of the signal, which a 10-wide sketch
        // (rank 2 + oversample 8) turns into eight σ of 1e-11..1e-10 σ_max —
        // kept under a 1e-12 cutoff, below the √ε floor the Gram route
        // actually resolves.
        let x = Matrix::from_fn(30, 150, |i, j| {
            let (a, b) = ((i as f64 + 1.0) * (j as f64 * 0.1).sin(), (i as f64 * 0.3).cos());
            1e6 * (1.0 + j as f64) + a + b * (j as f64 + 1.0)
        });
        let means = crate::center::column_means(&x);
        let xc = crate::center::centered_copy(&x);
        for seed in 0..5 {
            let opts = RandomizedSvdOptions { seed, ..RandomizedSvdOptions::default() };
            let (svd, energy) = centered_randomized_svd(&x, &means, 2, opts, usize::MAX).unwrap();
            assert_eq!(svd.rank(), 2, "seed {seed}: σ = {:?}", svd.sigma);
            // Both directions kept: they carry the whole energy, and
            // `Xc V Vᵀ` is `Xc`.
            let kept: f64 = svd.sigma.iter().map(|s| s * s).sum();
            assert!((kept - energy).abs() <= 1e-9 * energy, "seed {seed}: {kept} of {energy}");
            let xr = project_rank(&xc, &svd, 2);
            assert!(
                xr.approx_eq(&xc, 1e-6 * xc.max_abs()),
                "seed {seed}: rank-2 reconstruction off"
            );
        }
    }

    /// Seeded synthetic OD traffic: two shared temporal patterns with
    /// per-column amplitude and phase, plus hash noise whose size varies by
    /// column, so the spectrum has a real tail under the sketch width.
    fn noisy_traffic(n: usize, p: usize, seed: u64) -> Matrix {
        Matrix::from_fn(n, p, |i, j| {
            let t = i as f64 / 288.0 * std::f64::consts::TAU * 12.0;
            let amp = 15.0 + (j % 97) as f64;
            let phase = 0.8 * (j % 4) as f64;
            let psi = 1.1 * (j % 3) as f64;
            let signal = amp * (2.0 + (t + phase).sin() + 0.8 * (2.0 * t + psi).sin());
            let mut z = seed
                ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let noise = (z as f64 / u64::MAX as f64) - 0.5;
            signal + (1.0 + (j % 7) as f64) * noise
        })
    }

    /// The sine of the largest principal angle between the spans of the
    /// first `k` columns of `a` and of `b` (orthonormal columns): the
    /// spectral norm of `B_k − A_k (A_kᵀ B_k)`, read without the
    /// cancellation `√(1 − cos²)` suffers at small angles.
    fn largest_angle_sine(a: &Matrix, b: &Matrix, k: usize) -> f64 {
        let idx: Vec<usize> = (0..k).collect();
        let (ak, bk) = (a.select_cols(&idx).unwrap(), b.select_cols(&idx).unwrap());
        let residual = bk.sub(&ak.matmul(&ak.matmul_tn(&bk).unwrap()).unwrap()).unwrap();
        thin_svd(&residual, 0.0).unwrap().sigma[0]
    }

    /// Halko, Martinsson & Tropp (SIAM Rev. 2011), Corollary 10.10: the
    /// expected spectral norm of what a rank-`k + oversample` sketch with
    /// `q` power iterations leaves outside its range, from the exact
    /// spectrum.
    fn halko_expected_error(sigma: &[f64], k: usize, oversample: usize, q: usize) -> f64 {
        let power = 2.0 * q as f64 + 1.0;
        let (kf, pf) = (k as f64, oversample as f64);
        let tail: f64 = sigma[k..].iter().map(|s| s.powf(2.0 * power)).sum();
        let bound = (1.0 + (kf / (pf - 1.0)).sqrt()) * sigma[k].powf(power)
            + std::f64::consts::E * (kf + pf).sqrt() / pf * tail.sqrt();
        bound.powf(1.0 / power)
    }

    /// `‖(I − Q Qᵀ) Xc‖₂`, the spectral norm of what a sketch whose range
    /// has the orthonormal basis `Qᵀ` (`qt`, `m x n`) leaves of the centered
    /// window, read through the `n x n` row Gram `G = Xc Xcᵀ`: with `P = I −
    /// Q Qᵀ`, `‖P Xc‖₂² = λ_max(P G P)`.
    fn range_error(x: &Matrix, means: &[f64], qt: &Matrix) -> f64 {
        let n = x.nrows();
        let gram = projected_gram(None, x, means);
        let residual = Matrix::identity(n).sub(&qt.matmul_tn(qt).unwrap()).unwrap();
        let pgp = residual.matmul(&gram).unwrap().matmul(&residual).unwrap();
        eigen_symmetric(&pgp).unwrap().eigenvalues[0].max(0.0).sqrt()
    }

    /// The sketch against the exact row-Gram factorization at the large
    /// mesh's k = 10 on a 24 x 20 000 window, for 0, 1 and 2 power
    /// iterations.
    ///
    /// The window's spectrum is four signal directions over a flat noise
    /// floor: σ₅ … σ₂₃ lie within 7 % of each other, σ₁₁ / σ₁₀ ≈ 0.998. So
    /// the top-10 axes past the fourth are a near-arbitrary pick among
    /// nineteen near-equal noise directions, which no sketch of 18 columns
    /// resolves. With the defaults (oversample 8, two power iterations, the
    /// default seed) the sketch meets:
    ///
    /// * the top-4 (signal) σ within `1e-12` relative and axes within
    ///   `1e-6` rad of the exact factorization's;
    /// * the top-10 σ within 0.6 % relative (the noise σ read low), with
    ///   the largest top-10 principal angle under 0.95 rad — the noise
    ///   floor's arbitrary pick, not a fault of the range;
    /// * a range error `‖(I − Q Qᵀ) Xc‖₂` of 0.999 σ₁₁ (1.145 and 1.000
    ///   σ₁₁ at `q` = 0 and 1). Halko's Corollary 10.10 expects at most
    ///   1.47 σ₁₁ (7.28 and 1.92 σ₁₁); no 18-dimensional range can do
    ///   better than σ₁₉ = 0.971 σ₁₁ (Eckart–Young). The error is pinned
    ///   within 5 % of that floor, where it sits at 2.9 % and a sketch
    ///   without power iterations at 18 %.
    ///
    /// The σ error, the angle and the range error fall, or hold, as power
    /// iterations are added.
    #[test]
    fn sketch_range_meets_the_halko_bound_against_the_exact_fit() {
        let x = noisy_traffic(24, 20_000, 7);
        let means = crate::center::column_means(&x);
        let k = 10;
        let (exact, _) = centered_row_gram_svd(&x, &means, k).unwrap();
        assert_eq!(exact.rank(), 23, "the exact factorization keeps every direction");
        let sigma = &exact.sigma;
        let mut previous = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for q in 0..3 {
            let opts =
                RandomizedSvdOptions { oversample: 8, power_iters: q, seed: DEFAULT_SKETCH_SEED };
            let (rnd, _) = centered_randomized_svd(&x, &means, k, opts, k).unwrap();
            assert_eq!(rnd.rank(), k + 8, "q = {q}: the sketch keeps its whole width");
            let s = &rnd.sigma;
            let relative = (0..k).map(|i| (s[i] - sigma[i]).abs() / sigma[i]).fold(0.0, f64::max);
            let sine = largest_angle_sine(&exact.v, &rnd.v, k);
            let error = range_error(&x, &means, &sketch_range(&x, &means, k, opts));
            let halko = halko_expected_error(sigma, k, 8, q);
            println!(
                "q = {q}: top-{k} σ {relative:.3e} relative, largest angle {:.3} rad, \
                 range error {:.3} σ₁₁ (Halko {:.3} σ₁₁, floor σ₁₉ = {:.3} σ₁₁)",
                sine.asin(),
                error / sigma[k],
                halko / sigma[k],
                sigma[k + 8] / sigma[k],
            );
            assert!(error <= halko, "q = {q}: range error {error:e}, bound {halko:e}");
            assert!(error >= sigma[k + 8] * (1.0 - 1e-12), "q = {q}: below Eckart–Young");
            let grew = relative > previous.0 || sine > previous.1 || error > previous.2;
            assert!(!grew, "q = {q}: the error grew");
            previous = (relative, sine, error);
            if q == 2 {
                let signal = (0..4).map(|i| (s[i] - sigma[i]).abs() / sigma[i]).fold(0.0, f64::max);
                assert!(signal <= 1e-12, "signal σ {signal:e} relative");
                assert!(largest_angle_sine(&exact.v, &rnd.v, 4) <= 1e-6);
                assert!(relative <= 6e-3, "top-{k} σ {relative:e} relative");
                assert!(sine.asin() <= 0.95, "largest angle {} rad", sine.asin());
                let floor = sigma[k + 8];
                assert!(error <= 1.05 * floor, "range error {} σ₁₉", error / floor);
            }
        }
    }

    #[test]
    fn zero_matrix_degenerate() {
        let x = Matrix::zeros(10, 50);
        let svd = uncentered_svd(&x, 3, RandomizedSvdOptions::default()).unwrap();
        assert_eq!(svd.sigma, vec![0.0]);
    }

    #[test]
    fn rejects_empty_rank_zero_nonfinite() {
        let opts = RandomizedSvdOptions::default();
        assert!(uncentered_svd(&Matrix::zeros(0, 5), 2, opts).is_err());
        assert!(uncentered_svd(&Matrix::zeros(5, 0), 2, opts).is_err());
        assert!(uncentered_svd(&Matrix::identity(4), 0, opts).is_err());
        let mut x = Matrix::identity(4);
        x[(2, 2)] = f64::NAN;
        assert!(uncentered_svd(&x, 2, opts).is_err());
    }

    #[test]
    fn gaussian_sketch_has_sane_moments() {
        let g = gaussian_sketch(50, 200, 7);
        let data = g.as_slice();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / data.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
        assert!(data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn orthonormalize_handles_dependent_rows() {
        // Third row is the sum of the first two: it must be zeroed, not
        // turned into NaNs.
        let mut m = Matrix::from_fn(3, 6, |j, i| match j {
            0 => (i as f64 + 1.0).sin(),
            1 => (i as f64 + 1.0).cos(),
            _ => (i as f64 + 1.0).sin() + (i as f64 + 1.0).cos(),
        });
        orthonormalize_rows(&mut m);
        assert!(m.all_finite());
        let (r0, r1, r2) = (m.row(0).unwrap(), m.row(1).unwrap(), m.row(2).unwrap());
        assert!(vecops::norm(r2) < 1e-9, "dependent row should be zeroed");
        assert!(vecops::dot(r0, r1).abs() < 1e-10);
        assert!((vecops::norm(r0) - 1.0).abs() < 1e-10);
    }
}
