//! Implicit Wilkinson-shift QR on a symmetric tridiagonal matrix.
//!
//! Second stage of the [`crate::eigen_symmetric`] solver: given the
//! tridiagonal `(d, e)` produced by the blocked Householder reduction,
//! each QR sweep chases a bulge down the active block with a sequence of
//! Givens rotations whose shift is the Wilkinson choice (the eigenvalue of
//! the trailing 2×2 closest to the corner), deflating one eigenvalue at a
//! time with cubic local convergence (Golub & Van Loan §8.3; the classic
//! `tql2`/`dsteqr` iteration).
//!
//! The scalar recurrence on `(d, e)` is inherently serial and cheap —
//! `O(n)` per sweep. What is *not* cheap is accumulating the rotations into
//! the `n × n` eigenvector matrix, so each sweep's rotations are recorded
//! and applied in one batched, row-parallel pass ([`apply_rotations`]):
//! every matrix row replays the full rotation sequence independently
//! (LAPACK `dlasr` style), rows fan out over the pool in fixed blocks, and
//! four independent per-row chains are interleaved for instruction-level
//! parallelism. Per-row arithmetic is identical in every lane and the
//! decomposition depends only on the dimension, so eigenvectors are
//! bit-identical for every `ODFLOW_THREADS`.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Rows of the eigenvector accumulator per parallel task when replaying a
/// sweep's rotations; a multiple of the 4-row ILP interleave so chunk
/// boundaries never change which lane a row runs in (they couldn't change
/// the result anyway — lanes are arithmetically identical). 256 because a
/// region costs 13–50 µs once a second thread is woken and a solve opens one
/// per sweep (≈ 250 at `p = 121`), while replaying a sweep into 121 rows is
/// ≈ 10 µs of work: up to 256 rows the region is one task, which
/// `odflow_par` runs on the caller without touching the pool.
const QR_ROW_BLOCK: usize = 256;

/// Iteration budget per eigenvalue; the Wilkinson shift converges cubically
/// so real inputs take 2-3 sweeps per eigenvalue — 40 total across the
/// matrix leaves two orders of magnitude of headroom.
const QR_MAX_ITERS_PER_EIGENVALUE: usize = 40;

/// One Givens rotation in the `(i, i + 1)` plane.
#[derive(Clone, Copy)]
struct Rot {
    i: usize,
    c: f64,
    s: f64,
}

/// Diagonalizes the symmetric tridiagonal `(d, e)` in place, accumulating
/// the eigenvector transform into `z` (pass the identity to get the
/// tridiagonal eigenvectors, or the Householder `Q` basis to fold the
/// back-transform in). `e` carries the subdiagonal in `e[0..n-1]`;
/// `e[n-1]` is scratch. On success `d` holds the (unsorted) eigenvalues
/// and the columns of `z` the matching eigenvectors; returns the number of
/// QR sweeps taken.
///
/// # Errors
///
/// [`LinalgError::NoConvergence`] when the sweep budget is exhausted
/// (practically unreachable for finite symmetric input).
pub(crate) fn tridiag_qr(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<usize> {
    let n = d.len();
    if n == 0 {
        return Ok(0);
    }
    debug_assert_eq!(e.len(), n);
    debug_assert_eq!(z.shape(), (n, n));
    let eps = f64::EPSILON;
    let max_total = QR_MAX_ITERS_PER_EIGENVALUE * n;
    let mut total_sweeps = 0usize;
    let mut rots: Vec<Rot> = Vec::with_capacity(n);

    for l in 0..n {
        loop {
            // Deflation scan: the first negligible subdiagonal at or after
            // l bounds the active block [l, m].
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= eps * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break; // d[l] has converged.
            }
            total_sweeps += 1;
            if total_sweeps > max_total {
                return Err(LinalgError::NoConvergence {
                    op: "tridiag_qr",
                    iterations: total_sweeps,
                });
            }

            // Wilkinson shift from the leading 2×2 of the active block,
            // folded implicitly into the first rotation.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;

            // Bulge chase from the bottom of the block up to l, recording
            // each plane rotation for the batched eigenvector replay.
            rots.clear();
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // The split happened mid-sweep: deflate here and
                    // restart the scan; the rotations recorded so far have
                    // real effect and are still replayed below.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rots.push(Rot { i, c, s });
            }
            apply_rotations(z, &rots);
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(total_sweeps)
}

/// Replays one sweep's rotation sequence into every row of `z`, rows
/// fanned out over the pool in [`QR_ROW_BLOCK`] blocks.
///
/// A single row's update chain is sequentially dependent (rotation `i`
/// shares column `i + 1` with rotation `i + 1`), so four rows are
/// interleaved per pass — four independent chains keep the FMA pipeline
/// busy. Every lane runs the identical per-element expressions in the
/// identical order, so the 4-row tile and the single-row remainder produce
/// the same bits row for row.
fn apply_rotations(z: &mut Matrix, rots: &[Rot]) {
    if rots.is_empty() {
        return;
    }
    let ncols = z.ncols();
    odflow_par::parallel_chunks(z.as_mut_slice(), QR_ROW_BLOCK * ncols, |_, rows| {
        let mut quads = rows.chunks_exact_mut(4 * ncols);
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(ncols);
            let (r1, rest) = rest.split_at_mut(ncols);
            let (r2, r3) = rest.split_at_mut(ncols);
            for rot in rots {
                rotate_pair(r0, rot);
                rotate_pair(r1, rot);
                rotate_pair(r2, rot);
                rotate_pair(r3, rot);
            }
        }
        for row in quads.into_remainder().chunks_exact_mut(ncols) {
            for rot in rots {
                rotate_pair(row, rot);
            }
        }
    });
}

/// Applies one rotation to a row's `(i, i + 1)` column pair — the exact
/// `tql2` eigenvector update.
#[inline]
fn rotate_pair(row: &mut [f64], rot: &Rot) {
    let f = row[rot.i + 1];
    let g = row[rot.i];
    row[rot.i + 1] = rot.s * g + rot.c * f;
    row[rot.i] = rot.c * g - rot.s * f;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves a tridiagonal (d, e) directly, returning (eigenvalues
    /// unsorted, eigenvector matrix, sweeps).
    fn solve(d: &[f64], e: &[f64]) -> (Vec<f64>, Matrix, usize) {
        let n = d.len();
        let mut dv = d.to_vec();
        let mut ev = vec![0.0; n];
        ev[..e.len()].copy_from_slice(e);
        let mut z = Matrix::identity(n);
        let sweeps = tridiag_qr(&mut dv, &mut ev, &mut z).unwrap();
        (dv, z, sweeps)
    }

    fn tridiag_matrix(d: &[f64], e: &[f64]) -> Matrix {
        Matrix::from_fn(d.len(), d.len(), |i, j| {
            if i == j {
                d[i]
            } else if i + 1 == j || j + 1 == i {
                e[i.min(j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn two_by_two_known() {
        // [[2, 1], [1, 2]]: eigenvalues 3 and 1.
        let (vals, z, _) = solve(&[2.0, 2.0], &[1.0]);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!((sorted[0] - 3.0).abs() < 1e-12);
        assert!((sorted[1] - 1.0).abs() < 1e-12);
        let ztz = z.transpose().matmul(&z).unwrap();
        assert!(ztz.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn diagonal_input_converges_without_sweeps() {
        let (vals, z, sweeps) = solve(&[5.0, -1.0, 2.5], &[0.0, 0.0]);
        assert_eq!(vals, vec![5.0, -1.0, 2.5]);
        assert_eq!(sweeps, 0);
        assert_eq!(z.as_slice(), Matrix::identity(3).as_slice());
    }

    #[test]
    fn reconstructs_moderate_tridiagonal() {
        let n = 40;
        let d: Vec<f64> = (0..n).map(|i| 2.0 + (i as f64 * 0.7).sin()).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| 0.8 * (i as f64 * 0.3).cos()).collect();
        let (vals, z, _) = solve(&d, &e);
        let a = tridiag_matrix(&d, &e);
        // A = Z diag(vals) Z^T.
        let rebuilt = z.matmul(&Matrix::from_diag(&vals)).unwrap().matmul(&z.transpose()).unwrap();
        assert!(rebuilt.approx_eq(&a, 1e-10), "max err {}", rebuilt.sub(&a).unwrap().max_abs());
        let ztz = z.transpose().matmul(&z).unwrap();
        assert!(ztz.approx_eq(&Matrix::identity(n), 1e-10));
        // Trace preserved.
        let sum: f64 = vals.iter().sum();
        let tr: f64 = d.iter().sum();
        assert!((sum - tr).abs() < 1e-9);
    }

    #[test]
    fn handles_exact_zero_subdiagonal_splits() {
        // Two independent blocks: [5] ⊕ [[1, 2], [2, 1]] → {5, 3, -1}.
        let (vals, _, _) = solve(&[5.0, 1.0, 1.0], &[0.0, 2.0]);
        let mut sorted = vals;
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert!((sorted[0] - 5.0).abs() < 1e-12);
        assert!((sorted[1] - 3.0).abs() < 1e-12);
        assert!((sorted[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let (vals, _, sweeps) = solve(&[], &[]);
        assert!(vals.is_empty());
        assert_eq!(sweeps, 0);
        let (vals, z, _) = solve(&[7.0], &[]);
        assert_eq!(vals, vec![7.0]);
        assert_eq!(z.as_slice(), &[1.0]);
    }

    #[test]
    fn rotation_replay_is_thread_count_invariant() {
        // Three tasks, the last with an odd row count for the non-quad
        // remainder lane.
        let n = 2 * QR_ROW_BLOCK + 13;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 7) as f64).collect();
        let e: Vec<f64> = (0..n - 1).map(|i| 0.5 + ((i * 5) % 3) as f64 * 0.1).collect();
        let run = |threads| {
            odflow_par::with_thread_limit(threads, || {
                let mut dv = d.clone();
                let mut ev = vec![0.0; n];
                ev[..e.len()].copy_from_slice(&e);
                let mut z = Matrix::identity(n);
                let sweeps = tridiag_qr(&mut dv, &mut ev, &mut z).unwrap();
                (dv, z, sweeps)
            })
        };
        let (d1, z1, s1) = run(1);
        for &threads in &[4usize, 64] {
            let (dt, zt, st) = run(threads);
            assert_eq!(dt, d1, "threads={threads}");
            assert_eq!(zt.as_slice(), z1.as_slice(), "threads={threads}");
            assert_eq!(st, s1, "threads={threads}");
        }
    }

    #[test]
    fn quad_lane_matches_single_lane_bitwise() {
        // Rows 0..3 go through the 4-row interleave when the matrix is
        // wide enough; replaying the same rotations one row at a time must
        // give identical bits.
        let n = 8;
        let rots: Vec<Rot> = (0..n - 1)
            .rev()
            .map(|i| {
                let c = (0.3 + i as f64 * 0.11).cos();
                let s = (1.0 - c * c).sqrt();
                Rot { i, c, s }
            })
            .collect();
        let base = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 11) as f64 - 5.0);
        let mut tiled = base.clone();
        apply_rotations(&mut tiled, &rots);
        let mut single = base;
        for r in 0..n {
            let row = single.row_mut(r).unwrap();
            for rot in &rots {
                rotate_pair(row, rot);
            }
        }
        assert_eq!(tiled.as_slice(), single.as_slice());
    }
}
