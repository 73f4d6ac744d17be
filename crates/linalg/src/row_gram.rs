//! The exact thin SVD of a window wider than it is long, through its
//! `n x n` row Gram.
//!
//! The paper's windows are tall (2016 bins × 121 OD pairs) and factor
//! through the `p x p` column Gram. A window with few bins over many OD
//! pairs — 24 bins × 90 000 OD pairs, the large mesh — would make that a
//! 65 GB matrix, but its centered rows span at most `n − 1` directions, and
//! the `n x n` row Gram `G = Xc Xcᵀ` of the column-centered `Xc = X − 1μᵀ`
//! holds every one of them: `eigen_symmetric(G)` gives σ² and the left
//! singular vectors `W`, and `V = Xcᵀ W Σ⁻¹` the right ones. At the mesh's
//! shape that is a 24 × 24 eigenproblem and two passes of `≈ 5·10⁷`
//! multiply-adds over the window. Its cost grows as `O(n² p)`: a week of
//! the mesh (2016 bins) costs about 7 000 times as much as those 24 bins.
//!
//! ## The window is read where it lies
//!
//! A centered copy of the mesh window would be 17 MB. None is made: both
//! passes center one column band of `X` at a time into a cache-sized
//! scratch band. `x − μ` is the double a centered copy would hold, and
//! every kernel accumulates each output element in one ascending chain
//! from 0.0, so the factorization is the copy's bit for bit. Zero means
//! factor `x` itself: `x − 0.0` is `x`.
//!
//! The two passes are banded along the 90 000-wide side: `G` is folded
//! from [`GRAM_GROUP_COLS`] columns of `Xc` at a time through `nt_into`,
//! and `V` is written band by band by `tn_block`, each band of `Xc`
//! recomputed from `X` where it is needed. `V` is built for the leading
//! axes a caller asks for only (a fit's `p x k`), while σ keeps every
//! triplet. The left singular vectors are never formed: nothing a model
//! reads depends on them.
//!
//! ## Determinism
//!
//! Every matrix product runs on kernels that accumulate each output
//! element in ascending-k order whatever the banding, and every reduction
//! is combined in chunk order, so the factorization is **bit-identical for
//! every thread count** — the contract of the column Gram route.

use crate::eigen::eigen_symmetric;
use crate::error::{LinalgError, Result};
use crate::matrix::{band_cols, column_bands, nt_into, tn_block, Matrix, MATMUL_COL_BLOCK};
use crate::svd::Svd;
use std::ops::Range;

/// The exact thin SVD of the column-centered `Xc = X − 1μᵀ` (μ = `means`)
/// through its `n x n` row Gram `G = Xc Xcᵀ`, read where `x` lies, and its
/// energy `Σ σ²`: `eigen_symmetric(G)` gives σ² and the left singular
/// vectors `W`, and one banded pass gives `V = Xcᵀ W Σ⁻¹` for the leading
/// `min(v_cols, r)` triplets. Triplets below `√ε · σ_max` are dropped: σ²
/// is an eigenvalue of `G`, exact to about `ε · σ_max²`, so a smaller σ is
/// rounding, not data — the floor [`crate::thin_svd`] states for its own
/// Gram route. What remains is every direction the data has, so the
/// energy is their `Σ σ²`. The finiteness check is `G`'s diagonal:
/// `G[i][i] = Σ_j (x_ij − μ_j)²` is a sum of squares, which no NaN or
/// infinite centered value leaves finite, and `eigen_symmetric` refuses a
/// non-finite input.
///
/// σ keeps every triplet; `V` is built for the leading `min(v_cols, r)`
/// only — the banded pass over the window rotates that many columns of
/// `W`. Each element of `V` is its own ascending chain and each column's
/// norm sums that column alone, so the columns built are the bits of the
/// whole panel's leading columns.
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
    let p = x.ncols();
    if x.nrows() == 0 || p == 0 {
        return Err(LinalgError::Empty { op: "row_gram_svd" });
    }
    let eig = eigen_symmetric(&row_gram(x, means))?;

    let sigma_max = eig.eigenvalues.first().copied().unwrap_or(0.0).max(0.0).sqrt();
    if sigma_max == 0.0 {
        // A constant window: degenerate SVD, mirroring `thin_svd`'s
        // convention.
        return Ok((Svd { sigma: vec![0.0], v: Matrix::zeros(p, v_cols.min(1)) }, 0.0));
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

    // V = Xcᵀ W Σ^{-1} (p x r, r = the columns of `w_lead`), re-normalized
    // per column to absorb rounding drift in the small singular values —
    // the same guard `thin_svd` uses. Under the normalization the Σ^{-1}
    // rescale cancels analytically (each raw column of Xcᵀ W has norm σ_j),
    // so only the exact column norms are applied: two row-major passes
    // over the panel — one map_reduce accumulating all r squared norms
    // (per-column partials summed in chunk order, so the reduction is
    // deterministic) and one parallel scale — instead of 2r strided
    // per-column sweeps.
    let mut v = right_vectors(x, means, &w_lead);
    let r = v.ncols();
    let data = v.as_mut_slice();
    let norms_sq = odflow_par::map_reduce(
        p,
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
    let energy = sigma.iter().map(|s| s * s).sum();
    Ok((Svd { sigma, v }, energy))
}

/// Columns of `Xc` centered, then folded into `G`, per round of
/// [`row_gram`]: eight column bands, so a round's bands share out over the
/// pool and its `n x 8192` slice of `Xc` (1.5 MB at 24 bins) stays
/// cache-sized.
const GRAM_GROUP_COLS: usize = 8 * MATMUL_COL_BLOCK;

/// Columns `cols` of `X − 1μᵀ`, written over `out`, one slice per row.
fn center_band(x: &Matrix, means: &[f64], cols: Range<usize>, out: &mut [&mut [f64]]) {
    for (row, dst) in x.rows_iter().zip(out) {
        let centered = row[cols.clone()].iter().zip(&means[cols.clone()]);
        for (d, (&v, &mu)) in dst.iter_mut().zip(centered) {
            *d = v - mu;
        }
    }
}

/// `G = Xc Xcᵀ` (`n x n`) for `Xc = X − 1μᵀ`, without storing `Xc`: each
/// round centers [`GRAM_GROUP_COLS`] columns of it, one column band per
/// task, then folds them into `G` with row bands of it as tasks. Every
/// element continues one ascending chain over the columns from 0.0, so the
/// result is bit-identical to `Xc.matmul_nt(&Xc)`.
fn row_gram(x: &Matrix, means: &[f64]) -> Matrix {
    let (n, p) = x.shape();
    let mut gram = Matrix::zeros(n, n);
    let mut group = vec![0.0; n * GRAM_GROUP_COLS.min(p)];
    for g0 in (0..p).step_by(GRAM_GROUP_COLS) {
        let cols = g0..(g0 + GRAM_GROUP_COLS).min(p);
        let b = &mut group[..n * cols.len()];
        let mut bands = column_bands(b, cols.len());
        odflow_par::parallel_chunks(&mut bands, 1, |c, band| {
            center_band(x, means, band_cols(c, cols.clone()), &mut band[0]);
        });
        nt_into(b, b, cols.len(), gram.as_mut_slice(), false);
    }
    gram
}

/// `V = Xcᵀ W` (`p x r`) for `Xc = X − 1μᵀ`, without storing `Xc`: each
/// task centers one column band of `X` and writes that band's rows of `V`,
/// every element accumulating over the bins in ascending order from 0.0 —
/// the bits of `Xc.matmul_tn(W)`.
fn right_vectors(x: &Matrix, means: &[f64], w: &Matrix) -> Matrix {
    let (n, p, r) = (x.nrows(), x.ncols(), w.ncols());
    let mut v = Matrix::zeros(p, r);
    odflow_par::parallel_chunks(v.as_mut_slice(), MATMUL_COL_BLOCK * r, |c, v_rows| {
        let cols = band_cols(c, 0..p);
        let width = cols.len();
        let mut b = vec![0.0; n * width];
        let mut rows: Vec<&mut [f64]> = b.chunks_mut(width).collect();
        center_band(x, means, cols, &mut rows);
        tn_block(&b, width, w.as_slice(), r, 0, v_rows);
    });
    v
}

/// Rows per parallel block when normalizing the `p x r` right singular
/// panel; fixed so reductions are deterministic.
const V_COL_BLOCK: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

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
}
