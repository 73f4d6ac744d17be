//! Blocked Householder tridiagonalization with compact-WY back-transform.
//!
//! First stage of the [`crate::eigen_symmetric`] solver: a symmetric `A`
//! is reduced to `T = Qᵀ A Q` with `T` tridiagonal and
//! `Q = H₀ H₁ ⋯ H_{n-3}` a product of Householder reflectors
//! `H_j = I - τ_j v_j v_jᵀ` (LAPACK `dsytrd` convention: `v_j` is zero
//! through index `j`, one at `j + 1`, stored below). The reduction is
//! *blocked* in the `dlatrd` style: a panel of [`TRIDIAG_PANEL`] columns is
//! factored using only row/vector updates, accumulating the rank-2k
//! correction pair `(V, W)`, and the trailing square block then absorbs the
//! whole panel in one `A ← A - V Wᵀ - W Vᵀ` update ([`syr2k_update`]) — a
//! symmetric rank-2k matmul that runs on the same register-tiled,
//! row-parallel pattern as `Matrix::matmul`. After the tridiagonal
//! eigenproblem is solved, [`back_transform`] maps the eigenvectors back
//! through the stored reflectors per panel as the compact-WY block
//! `Q_panel = I - V T_wy Vᵀ`, so the whole back-transformation is three
//! dense matmuls per panel instead of `n` rank-1 updates.
//!
//! Determinism: the panel arithmetic is serial; the only parallel pieces —
//! the [`crate::matrix::symv_block`] matvec, the [`syr2k_update`] trailing
//! update, and the `Matrix::matmul` calls of the back-transform — decompose
//! by fixed row blocks and accumulate in fixed order, so the factorization
//! is bit-identical for every `ODFLOW_THREADS`.

use crate::matrix::{symv_block, Matrix};
use crate::vecops;

/// Panel width of the blocked tridiagonalization (the `k` of the rank-2k
/// trailing update). 32 keeps the panel's `V`/`W` working set under
/// 2 × 32 rows of the matrix while giving the trailing syr2k enough
/// arithmetic intensity to hide its memory traffic.
pub(crate) const TRIDIAG_PANEL: usize = 32;

/// Rows per parallel task in [`syr2k_update`]; fixed so the decomposition
/// depends only on the trailing-block size. 256 because the paper's
/// `p = 121` opens only four of these regions, ≈ 0.3 ms of a 6.6 ms solve
/// together, and splitting them across two threads measured no faster (a
/// region costs 13–50 µs once a second thread is woken): up to 256 rows
/// the region is one task, which `odflow_par` runs on the caller.
const SYR2K_ROW_BLOCK: usize = 256;

/// The Householder factorization of a symmetric matrix: tridiagonal
/// `(d, e)` plus the reflectors needed to rebuild `Q`.
pub(crate) struct TridiagFactor {
    /// Diagonal of `T`, length `n`.
    pub d: Vec<f64>,
    /// Subdiagonal of `T`, length `n` with `e[n-1] = 0` as a sentinel
    /// (the implicit-shift QR sweep reads one past the active block).
    pub e: Vec<f64>,
    /// Reflector vectors, one per reduced column (`n - 2` of them), each
    /// stored full-length: `vt[j]` is zero through index `j`, one at
    /// `j + 1`. Row-major by reflector so panel matmuls can borrow them
    /// as matrix rows without copies.
    pub vt: Vec<Vec<f64>>,
    /// Scalar factors `τ_j`, parallel to `vt`.
    pub taus: Vec<f64>,
}

/// Generates an elementary reflector for the column `x` (length `m ≥ 1`):
/// on return `x` holds the reflector vector `v` (with `v[0] = 1`) and the
/// result is `(τ, β)` such that `(I - τ v vᵀ) x_orig = β e₁`.
///
/// LAPACK `dlarfg` arithmetic: `β = -sign(α) √(α² + σ)` with `α = x[0]`
/// and `σ = ‖x[1..]‖²`; a zero tail returns `τ = 0` (no reflection).
fn make_householder(x: &mut [f64]) -> (f64, f64) {
    let alpha = x[0];
    let sigma = vecops::norm_sq(&x[1..]);
    if sigma == 0.0 {
        x[0] = 1.0;
        return (0.0, alpha);
    }
    let r = (alpha * alpha + sigma).sqrt();
    let beta = if alpha >= 0.0 { -r } else { r };
    let tau = (beta - alpha) / beta;
    let inv = 1.0 / (alpha - beta);
    for v in &mut x[1..] {
        *v *= inv;
    }
    x[0] = 1.0;
    (tau, beta)
}

/// Reduces a symmetric matrix (taken by value as the working copy) to
/// tridiagonal form, returning `(d, e)` and the stored reflectors.
///
/// The caller guarantees `w` is square, finite, and exactly symmetric
/// (the eigensolver entry point symmetrizes first); the reduction keeps
/// the trailing working block exactly symmetric — the syr2k update writes
/// both triangles from the same per-element expression, and IEEE `+`/`×`
/// are commutative — so full-row reads stay valid throughout.
pub(crate) fn tridiagonalize(mut w: Matrix) -> TridiagFactor {
    let n = w.nrows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let reflectors = n.saturating_sub(2);
    let mut vt: Vec<Vec<f64>> = Vec::with_capacity(reflectors);
    let mut taus: Vec<f64> = Vec::with_capacity(reflectors);

    let mut k = 0;
    while k < reflectors {
        let cols = TRIDIAG_PANEL.min(reflectors - k);
        // Panel-local W columns (full length, zero through index j+1's
        // predecessor), parallel to vt[k..k + cols].
        let mut wt: Vec<Vec<f64>> = Vec::with_capacity(cols);
        for jj in 0..cols {
            let j = k + jj;
            // Fold the panel's previous reflectors into row j only (the
            // trailing block is updated once per panel): working on the
            // row — contiguous in row-major storage — is equivalent to the
            // column update because the block stays symmetric.
            {
                let row = w.row_mut(j).expect("panel row in bounds");
                for q in 0..jj {
                    let vq = &vt[k + q];
                    let wq = &wt[q];
                    vecops::axpy2(-wq[j], &vq[j..], -vq[j], &wq[j..], &mut row[j..]);
                }
                d[j] = row[j];
                let (tau, beta) = make_householder(&mut row[j + 1..]);
                e[j] = beta;
                taus.push(tau);
                let mut v = vec![0.0; n];
                v[j + 1..].copy_from_slice(&row[j + 1..]);
                vt.push(v);
            }
            let v_tail = &vt[j][j + 1..];
            let tau = taus[j];
            // w_j = τ (A - V Wᵀ - W Vᵀ) v - (τ²/2) (vᵀ (…) v) v, computed
            // on the trailing block rows j+1.. of the *panel-start* matrix
            // (exactly what `w` still holds there).
            let mut p = symv_block(w.as_slice(), n, j + 1, v_tail);
            for q in 0..jj {
                let vq = &vt[k + q][j + 1..];
                let wq = &wt[q][j + 1..];
                let s_w = vecops::dot4(wq, v_tail);
                let s_v = vecops::dot4(vq, v_tail);
                vecops::axpy2(-s_w, vq, -s_v, wq, &mut p);
            }
            vecops::scale(&mut p, tau);
            let half = 0.5 * tau * vecops::dot4(&p, v_tail);
            vecops::axpy(-half, v_tail, &mut p);
            let mut w_col = vec![0.0; n];
            w_col[j + 1..].copy_from_slice(&p);
            wt.push(w_col);
        }
        // Absorb the whole panel into the trailing square block:
        // A[t0.., t0..] -= V Wᵀ + W Vᵀ.
        let t0 = k + cols;
        syr2k_update(&mut w, t0, &vt[k..k + cols], &wt);
        k += cols;
    }

    // The final (≤ 2)×(≤ 2) corner is already tridiagonal.
    for j in reflectors..n {
        d[j] = w[(j, j)];
        if j + 1 < n {
            e[j] = w[(j, j + 1)];
        }
    }
    TridiagFactor { d, e, vt, taus }
}

/// Symmetric rank-2k trailing update `A[t0.., t0..] -= V Wᵀ + W Vᵀ`, where
/// `vt`/`wt` hold the panel's reflector and update columns as full-length
/// rows.
///
/// Output rows fan out over the pool in [`SYR2K_ROW_BLOCK`] blocks; within
/// a row the panel columns are folded two at a time — each output element
/// accumulates `v_q[i]·w_q[c] + w_q[i]·v_q[c]` in ascending-`q` order with
/// fixed-width zip chains, the same register-tiling recipe as
/// `matmul_tile_2x4`. The (i, c) and (c, i) elements sum bitwise-identical
/// terms, so the block stays exactly symmetric.
fn syr2k_update(w: &mut Matrix, t0: usize, vt: &[Vec<f64>], wt: &[Vec<f64>]) {
    let n = w.ncols();
    if t0 >= n {
        return;
    }
    let trailing = &mut w.as_mut_slice()[t0 * n..];
    odflow_par::parallel_chunks(trailing, SYR2K_ROW_BLOCK * n, |blk, rows| {
        let first = t0 + blk * SYR2K_ROW_BLOCK;
        for (i, row) in (first..).zip(rows.chunks_exact_mut(n)) {
            let out = &mut row[t0..];
            let mut q = 0;
            while q + 2 <= vt.len() {
                let (v0, w0) = (&vt[q][t0..], &wt[q][t0..]);
                let (v1, w1) = (&vt[q + 1][t0..], &wt[q + 1][t0..]);
                let (cv0, cw0) = (vt[q][i], wt[q][i]);
                let (cv1, cw1) = (vt[q + 1][i], wt[q + 1][i]);
                let cols = v0.iter().zip(w0).zip(v1.iter().zip(w1));
                for (o, ((&v0c, &w0c), (&v1c, &w1c))) in out.iter_mut().zip(cols) {
                    let mut acc = *o;
                    acc -= cv0 * w0c + cw0 * v0c;
                    acc -= cv1 * w1c + cw1 * v1c;
                    *o = acc;
                }
                q += 2;
            }
            if q < vt.len() {
                let (vq, wq) = (&vt[q][t0..], &wt[q][t0..]);
                let (cv, cw) = (vt[q][i], wt[q][i]);
                vecops::axpy2(-cv, wq, -cw, vq, out);
            }
        }
    });
}

/// Maps tridiagonal eigenvectors back to the original basis:
/// `Z ← Q Z = H₀ ⋯ H_{n-3} Z`, applied per panel in reverse order as the
/// compact-WY block `Q_panel = I - V T_wy Vᵀ` — three deterministic
/// parallel matmuls per panel (`Y = Vᵀ Z`, `T_wy Y`, `Z -= V (T_wy Y)`).
pub(crate) fn back_transform(z: Matrix, factor: &TridiagFactor) -> Matrix {
    let r = factor.vt.len();
    if r == 0 {
        return z;
    }
    let mut z = z;
    let blocks = r.div_ceil(TRIDIAG_PANEL);
    for b in (0..blocks).rev() {
        let k = b * TRIDIAG_PANEL;
        let cols = TRIDIAG_PANEL.min(r - k);
        let t_wy = build_wy_t(&factor.vt[k..k + cols], &factor.taus[k..k + cols], k);
        let v_rows =
            Matrix::from_rows(&factor.vt[k..k + cols]).expect("reflector rows are equal length");
        let y = v_rows.matmul(&z).expect("V^T Z shapes agree");
        let ty = t_wy.matmul(&y).expect("T Y shapes agree");
        let update = v_rows.transpose().matmul(&ty).expect("V (T Y) shapes agree");
        z = z.sub(&update).expect("update has Z's shape");
    }
    z
}

/// Builds the upper-triangular compact-WY factor `T_wy` for a panel of
/// reflectors (LAPACK `dlarft` forward/columnwise recurrence):
/// `T[j][j] = τ_j`, `T[0..j, j] = -τ_j · T[0..j, 0..j] · (Vᵀ v_j)`.
///
/// The reflector support starts at `k + j + 1`, so each `Vᵀ v_j` dot runs
/// over the overlap `[k + j + 1, n)` only.
fn build_wy_t(vt: &[Vec<f64>], taus: &[f64], k: usize) -> Matrix {
    let cols = vt.len();
    let mut t = Matrix::zeros(cols, cols);
    for jj in 0..cols {
        let tail = k + jj + 1;
        let vj = &vt[jj][tail..];
        let y: Vec<f64> = (0..jj).map(|q| vecops::dot4(&vt[q][tail..], vj)).collect();
        for q2 in 0..jj {
            let mut s = 0.0;
            for (q, &yq) in y.iter().enumerate().skip(q2) {
                s += t[(q2, q)] * yq;
            }
            t[(q2, jj)] = -taus[jj] * s;
        }
        t[(jj, jj)] = taus[jj];
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic dense symmetric test matrix with decent spread.
    fn sym(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (1.0 + lo) / (2.0 + hi)
                + 0.05 * (((i.min(j) * 31 + i.max(j) * 17) % 101) as f64)
                + if i == j { 2.0 + i as f64 * 0.1 } else { 0.0 }
        })
    }

    /// Rebuilds `Q` explicitly by applying the reflectors to the identity.
    fn q_matrix(factor: &TridiagFactor, n: usize) -> Matrix {
        back_transform(Matrix::identity(n), factor)
    }

    /// Builds the tridiagonal matrix from `(d, e)`.
    fn t_matrix(factor: &TridiagFactor, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                factor.d[i]
            } else if j + 1 == i || i + 1 == j {
                factor.e[i.min(j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn reconstructs_q_t_qt_across_panel_boundaries() {
        // Sizes straddling one, several, and ragged panel counts.
        for &n in &[1usize, 2, 3, 5, 8, TRIDIAG_PANEL, TRIDIAG_PANEL + 1, 2 * TRIDIAG_PANEL + 7] {
            let a = sym(n);
            let factor = tridiagonalize(a.clone());
            let q = q_matrix(&factor, n);
            let t = t_matrix(&factor, n);
            let rebuilt = q.matmul(&t).unwrap().matmul(&q.transpose()).unwrap();
            let scale = a.max_abs().max(1.0);
            assert!(
                rebuilt.approx_eq(&a, 1e-10 * scale),
                "n={n}: max err {}",
                rebuilt.sub(&a).unwrap().max_abs()
            );
        }
    }

    #[test]
    fn q_is_orthogonal() {
        for &n in &[6usize, TRIDIAG_PANEL + 3, 2 * TRIDIAG_PANEL] {
            let factor = tridiagonalize(sym(n));
            let q = q_matrix(&factor, n);
            let qtq = q.transpose().matmul(&q).unwrap();
            assert!(qtq.approx_eq(&Matrix::identity(n), 1e-10), "n={n}");
        }
    }

    #[test]
    fn trace_is_preserved() {
        let n = 41;
        let a = sym(n);
        let factor = tridiagonalize(a.clone());
        let tr_a = a.trace().unwrap();
        let tr_t: f64 = factor.d.iter().sum();
        assert!((tr_a - tr_t).abs() < 1e-8 * tr_a.abs().max(1.0), "{tr_a} vs {tr_t}");
    }

    #[test]
    fn blocked_reduction_is_thread_count_invariant() {
        // The first panels' trailing updates (and their symv calls) are
        // two tasks each, the last one ragged.
        let n = 2 * SYR2K_ROW_BLOCK + 13;
        let a = sym(n);
        let serial = odflow_par::with_thread_limit(1, || tridiagonalize(a.clone()));
        for &threads in &[4usize, 64] {
            let par = odflow_par::with_thread_limit(threads, || tridiagonalize(a.clone()));
            assert_eq!(par.d, serial.d, "threads={threads}");
            assert_eq!(par.e, serial.e, "threads={threads}");
            assert_eq!(par.taus, serial.taus, "threads={threads}");
            assert_eq!(par.vt, serial.vt, "threads={threads}");
        }
    }

    #[test]
    fn back_transform_is_thread_count_invariant() {
        let n = TRIDIAG_PANEL + 19;
        let factor = tridiagonalize(sym(n));
        let z0 = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 13) as f64 / 13.0 - 0.5);
        let serial = odflow_par::with_thread_limit(1, || back_transform(z0.clone(), &factor));
        for &threads in &[4usize, 64] {
            let par =
                odflow_par::with_thread_limit(threads, || back_transform(z0.clone(), &factor));
            assert_eq!(par.as_slice(), serial.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn syr2k_matches_naive_bitwise() {
        // The 2-column register tile must not change a bit versus folding
        // the panel one column at a time with the same per-element
        // expression order... so compare against an explicit re-derivation
        // of the kernel's own accumulation order, and against a plain
        // matmul-based update numerically.
        let n = 23;
        let t0 = 5;
        let cols = 5; // odd: exercises the single-column remainder
        let mk = |seed: usize| -> Vec<Vec<f64>> {
            (0..cols)
                .map(|q| {
                    (0..n)
                        .map(|i| {
                            if i < t0 {
                                0.0
                            } else {
                                (((i * 13 + q * 29 + seed) % 37) as f64) / 37.0 - 0.4
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let vt = mk(3);
        let wt = mk(11);
        let base = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 17) as f64 * 0.25);

        let mut tiled = base.clone();
        syr2k_update(&mut tiled, t0, &vt, &wt);

        // Naive: same q-ascending, pairwise-fused element expression.
        let mut naive = base.clone();
        for i in t0..n {
            for c in t0..n {
                let mut acc = naive[(i, c)];
                let mut q = 0;
                while q + 2 <= cols {
                    acc -= vt[q][i] * wt[q][c] + wt[q][i] * vt[q][c];
                    acc -= vt[q + 1][i] * wt[q + 1][c] + wt[q + 1][i] * vt[q + 1][c];
                    q += 2;
                }
                if q < cols {
                    acc += (-vt[q][i]) * wt[q][c] + (-wt[q][i]) * vt[q][c];
                }
                naive[(i, c)] = acc;
            }
        }
        assert_eq!(tiled.as_slice(), naive.as_slice());

        // And the result is exactly symmetric when the input is.
        let sym_base = Matrix::from_fn(n, n, |i, j| ((i.min(j) * 5 + i.max(j) * 11) % 17) as f64);
        let mut updated = sym_base;
        syr2k_update(&mut updated, t0, &vt, &wt);
        assert_eq!(updated.max_asymmetry(), 0.0);
    }

    #[test]
    fn householder_annihilates_tail() {
        let mut x = vec![3.0, 1.0, -2.0, 0.5];
        let orig = x.clone();
        let (tau, beta) = make_householder(&mut x);
        // Apply H = I - tau v v^T to the original vector: expect beta e1.
        let vdotx = vecops::dot(&x, &orig);
        let reflected: Vec<f64> = orig.iter().zip(&x).map(|(&o, &v)| o - tau * vdotx * v).collect();
        assert!((reflected[0] - beta).abs() < 1e-12);
        for &r in &reflected[1..] {
            assert!(r.abs() < 1e-12, "tail not annihilated: {r}");
        }
        // Norm preserved: |beta| = ||x||.
        assert!((beta.abs() - vecops::norm(&orig)).abs() < 1e-12);
    }

    #[test]
    fn householder_zero_tail_is_identity() {
        let mut x = vec![4.0, 0.0, 0.0];
        let (tau, beta) = make_householder(&mut x);
        assert_eq!(tau, 0.0);
        assert_eq!(beta, 4.0);
    }
}
