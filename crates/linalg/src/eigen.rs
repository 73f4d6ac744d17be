//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! PCA on the OD-flow timeseries reduces to diagonalizing the `p x p`
//! covariance (or scatter) matrix `X^T X`, with `p = 121` OD pairs for the
//! Abilene-like topology. At that size the cyclic Jacobi method is an ideal
//! fit: it is unconditionally convergent for symmetric input, delivers
//! eigenvectors orthogonal to working precision, and has no failure modes
//! requiring shift heuristics. Each sweep is `O(p^3)`; convergence takes a
//! handful of sweeps.
//!
//! References: Golub & Van Loan, *Matrix Computations*, §8.5 (Jacobi methods
//! and parallel orderings); Jackson, *A User's Guide to Principal
//! Components* (the paper's PCA reference \[11\]).
//!
//! For matrices at or below the paper's scale (`p = 121`) the classic serial
//! cyclic sweep is used, every rotation applied along contiguous rows (the
//! working matrix is symmetric and the eigenvectors accumulate transposed).
//! From [`JACOBI_PARALLEL_MIN_DIM`] upward
//! each sweep switches to a round-robin *parallel ordering*: the `n(n-1)/2`
//! pivots are organized into `n-1` rounds of `n/2` disjoint planes, and each
//! round's rotations are applied concurrently — first as column updates
//! (parallel over row blocks), then as row updates (parallel over disjoint
//! row pairs), then to the eigenvector accumulator. The ordering choice
//! depends only on the matrix dimension, and every phase writes disjoint
//! data, so results are bit-identical for any thread count.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition.
///
/// Eigenpairs are sorted by **descending** eigenvalue, matching the paper's
/// convention that eigenflow `u_1` captures the most variance.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending. For a covariance matrix these are the
    /// variances captured by each principal axis.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose **columns** are the corresponding unit eigenvectors.
    pub eigenvectors: Matrix,
    /// Iterations of the underlying solver: Jacobi sweeps for
    /// [`eigen_symmetric`], QR bulge-chase sweeps for
    /// [`eigen_symmetric_tridiagonal`].
    pub sweeps: usize,
}

impl EigenDecomposition {
    /// The `k`-th eigenvector (column of [`Self::eigenvectors`]) as a `Vec`.
    pub fn eigenvector(&self, k: usize) -> Result<Vec<f64>> {
        self.eigenvectors.col(k)
    }

    /// Fraction of total variance captured by the top `k` eigenvalues.
    ///
    /// Negative eigenvalues (numerical noise around zero for rank-deficient
    /// inputs) are clamped to zero for this summary.
    pub fn variance_captured(&self, k: usize) -> f64 {
        let clamped: Vec<f64> = self.eigenvalues.iter().map(|&l| l.max(0.0)).collect();
        let total: f64 = clamped.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        clamped.iter().take(k).sum::<f64>() / total
    }

    /// Effective rank: number of eigenvalues above `tol * max_eigenvalue`.
    pub fn effective_rank(&self, tol: f64) -> usize {
        let max = self.eigenvalues.first().copied().unwrap_or(0.0).max(0.0);
        if max == 0.0 {
            return 0;
        }
        self.eigenvalues.iter().filter(|&&l| l > tol * max).count()
    }
}

/// Which pivot ordering a Jacobi iteration uses per sweep.
///
/// Both orderings converge to the same eigensystem; they differ in the
/// rotation sequence, so intermediate floating-point values (and thus the
/// final low-order bits) differ between the two. Whatever the choice, the
/// result is bit-identical for every thread count — the ordering decides
/// the arithmetic, the pool only schedules it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobiOrdering {
    /// Pick by dimension: serial cyclic below
    /// [`JACOBI_PARALLEL_MIN_DIM`], round-robin parallel ordering at or
    /// above it. This is the default and the only variant callers normally
    /// need.
    #[default]
    Auto,
    /// Force the classic serial cyclic sweep regardless of dimension.
    /// Used by the `jacobi_ordering` justification bench that pins the
    /// crossover point.
    Serial,
    /// Force the round-robin parallel ordering regardless of dimension.
    Parallel,
}

/// Options controlling the Jacobi iteration.
#[derive(Debug, Clone, Copy)]
pub struct JacobiOptions {
    /// Convergence threshold on the off-diagonal Frobenius norm, relative to
    /// the Frobenius norm of the input. Default `1e-14`.
    pub rel_tolerance: f64,
    /// Maximum number of sweeps before declaring non-convergence.
    /// Default 64 (classic Jacobi converges in < 15 sweeps for any
    /// reasonable matrix; 64 is a generous safety margin).
    pub max_sweeps: usize,
    /// Maximum tolerated asymmetry `max |a_ij - a_ji|` in the input, relative
    /// to its max absolute entry. Default `1e-9`. Inputs within tolerance are
    /// symmetrized as `(A + A^T) / 2` before iterating.
    pub symmetry_tolerance: f64,
    /// Sweep ordering selection. Default [`JacobiOrdering::Auto`].
    pub ordering: JacobiOrdering,
}

impl Default for JacobiOptions {
    fn default() -> Self {
        JacobiOptions {
            rel_tolerance: 1e-14,
            max_sweeps: 64,
            symmetry_tolerance: 1e-9,
            ordering: JacobiOrdering::Auto,
        }
    }
}

/// Computes the eigendecomposition of a symmetric matrix with default
/// [`JacobiOptions`].
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NotSymmetric`] when asymmetry exceeds tolerance.
/// * [`LinalgError::NonFinite`] when the input contains NaN or infinity.
/// * [`LinalgError::NoConvergence`] if the sweep budget is exhausted
///   (practically unreachable for finite symmetric input).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{Matrix, eigen_symmetric};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
/// let e = eigen_symmetric(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigen_symmetric(a: &Matrix) -> Result<EigenDecomposition> {
    eigen_symmetric_with(a, JacobiOptions::default())
}

/// Computes the eigendecomposition of a symmetric matrix with explicit
/// options. See [`eigen_symmetric`].
pub fn eigen_symmetric_with(a: &Matrix, opts: JacobiOptions) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { op: "eigen_symmetric", shape: a.shape() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "eigen_symmetric" });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }

    let scale = a.max_abs();
    let asym = a.max_asymmetry();
    if scale > 0.0 && asym > opts.symmetry_tolerance * scale {
        return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
    }

    // Work on a symmetrized copy; tiny asymmetries from floating-point
    // accumulation in X^T X are averaged away.
    let mut w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    // The eigenvector accumulator: `V` under the parallel ordering, `V^T`
    // under the serial one (whose rotations then run along rows).
    let mut v = Matrix::identity(n);

    let fro = w.frobenius_norm();
    let tol = if fro > 0.0 { opts.rel_tolerance * fro } else { 0.0 };

    // The sweep strategy is chosen from the dimension alone (never the
    // thread count), so a given matrix always takes the same arithmetic
    // path and ODFLOW_THREADS cannot change the result.
    let parallel_ordering = match opts.ordering {
        JacobiOrdering::Auto => n >= JACOBI_PARALLEL_MIN_DIM,
        JacobiOrdering::Serial => false,
        JacobiOrdering::Parallel => true,
    };

    // Rotation table reused across every round of every sweep: with the
    // persistent pool the per-round fan-out is cheap enough that this
    // per-round allocation was a measurable share of small-dimension
    // sweeps.
    let mut rotation_scratch: Vec<Rotation> = Vec::with_capacity(n.div_ceil(2));

    let mut sweeps = 0;
    while off_diagonal_norm(&w) > tol {
        if sweeps >= opts.max_sweeps {
            return Err(LinalgError::NoConvergence { op: "eigen_symmetric", iterations: sweeps });
        }
        if parallel_ordering {
            parallel_sweep(&mut w, &mut v, &mut rotation_scratch);
        } else {
            serial_sweep(&mut w, &mut v);
        }
        sweeps += 1;
    }

    // Extract eigenvalues from the (now nearly diagonal) working matrix and
    // sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| w[(i, i)]).collect();
    order.sort_by(|&i, &j| diag[j].partial_cmp(&diag[i]).expect("finite eigenvalues"));

    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let eigenvectors =
        if parallel_ordering { v.select_cols(&order)? } else { v.select_rows(&order)?.transpose() };

    Ok(EigenDecomposition { eigenvalues, eigenvectors, sweeps })
}

/// Computes the eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization + implicit Wilkinson-shift QR — the direct-method
/// pipeline every dense LAPACK eigensolver uses, here with a blocked
/// `dsytrd`-style panel reduction (compact-WY back-transform, rank-2k
/// trailing update) and a `dsteqr`-style QR stage with batched rotation
/// replay.
///
/// Produces the same eigensystem as [`eigen_symmetric`] (to working
/// precision; low-order bits and eigenvector signs differ — the two
/// methods take entirely different arithmetic paths) at a fraction of the
/// flops: `O(n³)` once versus `O(n³)` *per Jacobi sweep*. At `p = 256`
/// this is the difference between ~370 ms and well under 100 ms, which is
/// why [`crate::EigenMethod::Auto`] prefers it from
/// [`crate::backend::AUTO_TRIDIAG_MIN_DIM`] upward. Like every kernel in
/// the workspace, results are bit-identical for every thread count.
///
/// # Errors
///
/// Same contract as [`eigen_symmetric`]: [`LinalgError::NotSquare`],
/// [`LinalgError::NotSymmetric`], [`LinalgError::NonFinite`], and
/// [`LinalgError::NoConvergence`] (practically unreachable).
///
/// # Examples
///
/// ```
/// use odflow_linalg::{eigen_symmetric_tridiagonal, Matrix};
///
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
/// let e = eigen_symmetric_tridiagonal(&a).unwrap();
/// assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigen_symmetric_tridiagonal(a: &Matrix) -> Result<EigenDecomposition> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { op: "eigen_symmetric_tridiagonal", shape: a.shape() });
    }
    if !a.all_finite() {
        return Err(LinalgError::NonFinite { op: "eigen_symmetric_tridiagonal" });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
            sweeps: 0,
        });
    }
    let scale = a.max_abs();
    let asym = a.max_asymmetry();
    let symmetry_tolerance = JacobiOptions::default().symmetry_tolerance;
    if scale > 0.0 && asym > symmetry_tolerance * scale {
        return Err(LinalgError::NotSymmetric { max_asymmetry: asym });
    }

    // Same symmetrized working copy as the Jacobi path: tiny asymmetries
    // from floating-point accumulation in X^T X are averaged away.
    let w = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut factor = crate::householder::tridiagonalize(w);
    let mut z = Matrix::identity(n);
    let sweeps = crate::tridiag::tridiag_qr(&mut factor.d, &mut factor.e, &mut z)?;
    let z = crate::householder::back_transform(z, &factor);

    // Sort eigenpairs by descending eigenvalue, exactly as Jacobi does.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| factor.d[j].partial_cmp(&factor.d[i]).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| factor.d[i]).collect();
    let eigenvectors = z.select_cols(&order)?;
    Ok(EigenDecomposition { eigenvalues, eigenvectors, sweeps })
}

/// The dense-dispatch entry point: cyclic Jacobi below
/// [`crate::backend::AUTO_TRIDIAG_MIN_DIM`] (where its simplicity wins and
/// the paper-scale `p = 121` results stay byte-identical to the historical
/// path), blocked tridiagonal QR at or above it. The choice depends only
/// on the dimension, never the thread count.
///
/// # Errors
///
/// Same contract as [`eigen_symmetric`].
pub fn eigen_symmetric_auto(a: &Matrix) -> Result<EigenDecomposition> {
    if a.nrows() >= crate::backend::AUTO_TRIDIAG_MIN_DIM && a.is_square() {
        eigen_symmetric_tridiagonal(a)
    } else {
        eigen_symmetric(a)
    }
}

/// Smallest dimension at which the Jacobi iteration switches from the
/// serial cyclic ordering to the round-robin parallel ordering (under
/// [`JacobiOrdering::Auto`]).
///
/// The two orderings take different arithmetic paths, so the constant is
/// part of the numeric contract: it stays at 128, where it was set when
/// the serial sweep still walked columns, and the paper's p = 121 mesh
/// stays on the byte-identical serial path. It is no longer the speed
/// crossover — since the serial sweep went row-oriented the
/// `jacobi_ordering` criterion bench
/// (`cargo bench -p odflow_bench -- jacobi_ordering`) has it ahead at 128
/// and 160 on the 2-vCPU reference box — and [`crate::EigenMethod::Auto`]
/// never reaches the parallel ordering (it goes tridiagonal from 128), so
/// only explicit `DenseJacobi` callers see it; ROADMAP's "delete what the
/// system no longer needs" (a) retires it with that backend.
pub const JACOBI_PARALLEL_MIN_DIM: usize = 128;

/// One Jacobi plane rotation in the `(p, q)` plane.
#[derive(Clone, Copy)]
struct Rotation {
    p: usize,
    q: usize,
    c: f64,
    s: f64,
}

/// Stable rotation coefficients annihilating `w[(p, q)]`
/// (Golub & Van Loan 8.5.2): `t = sign(theta) / (|theta| + sqrt(theta^2+1))`,
/// `theta = (aqq - app) / (2 apq)`. Returns `None` when the pivot is already
/// zero.
fn rotation_for(w: &Matrix, p: usize, q: usize) -> Option<Rotation> {
    let apq = w[(p, q)];
    if apq == 0.0 {
        return None;
    }
    let app = w[(p, p)];
    let aqq = w[(q, q)];
    let theta = (aqq - app) / (2.0 * apq);
    let t = if theta >= 0.0 {
        1.0 / (theta + (1.0 + theta * theta).sqrt())
    } else {
        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    Some(Rotation { p, q, c, s })
}

/// The classic cyclic sweep: pivots visited row by row, each rotation
/// applied two-sided before the next is computed. `vt` accumulates the
/// **transposed** eigenvector matrix, so both updates are
/// [`rotate_row_pair`] over contiguous rows, where the textbook form walks
/// columns `p` and `q` of both matrices (a cache line per element at
/// `p = 121`). Same operands, same expressions, bit-identical results, at
/// about half the time — and this sweep is most of a `diagnose`.
fn serial_sweep(w: &mut Matrix, vt: &mut Matrix) {
    let n = w.nrows();
    for p in 0..n - 1 {
        for q in p + 1..n {
            if let Some(rot) = rotation_for(w, p, q) {
                apply_rotation(w, &rot);
                rotate_row_pair(vt.as_mut_slice(), n, &rot);
            }
        }
    }
}

/// The `k`-th pair of round `round` in a round-robin (circle-method)
/// tournament over `m` players (`m` even): every unordered pair appears
/// exactly once across the `m - 1` rounds, and the `m / 2` pairs within one
/// round are disjoint.
fn tournament_pair(m: usize, round: usize, k: usize) -> (usize, usize) {
    debug_assert!(m.is_multiple_of(2));
    let i = if k == 0 { m - 1 } else { (round + k) % (m - 1) };
    let j = (round + m - 1 - k) % (m - 1);
    (i, j)
}

/// Rows per parallel block when applying a round's column rotations.
const JACOBI_ROW_BLOCK: usize = 64;

/// One sweep under the round-robin parallel ordering.
///
/// Per round the disjoint rotations `J = J_1 J_2 ...` are applied as
/// `W <- J^T (W J)` in two phases — column updates (each matrix row is
/// touched by every rotation but only in columns `p, q`, so rows
/// parallelize) then row updates (each rotation owns rows `p, q`
/// exclusively, so pairs parallelize) — and accumulated into `V <- V J`.
/// Coefficients are computed before any update from entries no rotation in
/// the round touches, so the result is independent of scheduling.
///
/// Each phase is one region on the persistent pool, so a round pays three
/// queue dispatches (not three thread spawn/join cycles — that overhead is
/// what kept [`JACOBI_PARALLEL_MIN_DIM`] at 192 before the pool became
/// persistent). The rotation table is caller-provided scratch, cleared and
/// refilled per round, so steady-state sweeps allocate nothing.
fn parallel_sweep(w: &mut Matrix, v: &mut Matrix, rots: &mut Vec<Rotation>) {
    let n = w.nrows();
    let m = n + (n & 1); // round up to even; index n (if any) is the bye
    for round in 0..m - 1 {
        rots.clear();
        for k in 0..m / 2 {
            let (i, j) = tournament_pair(m, round, k);
            if i >= n || j >= n {
                continue; // bye in odd-dimension tournaments
            }
            if let Some(rot) = rotation_for(w, i.min(j), i.max(j)) {
                rots.push(rot);
            }
        }
        if rots.is_empty() {
            continue;
        }
        apply_column_rotations(w, rots);
        apply_row_rotations(w, rots);
        // The two-sided update annihilates the pivots modulo rounding;
        // zero them explicitly as the serial rotation does.
        for rot in rots.iter() {
            w[(rot.p, rot.q)] = 0.0;
            w[(rot.q, rot.p)] = 0.0;
        }
        apply_column_rotations(v, rots);
    }
}

/// `M <- M J` for a set of disjoint-plane rotations, parallel over row
/// blocks (each row is updated independently in columns `p, q`).
fn apply_column_rotations(m: &mut Matrix, rots: &[Rotation]) {
    let ncols = m.ncols();
    odflow_par::parallel_chunks(m.as_mut_slice(), JACOBI_ROW_BLOCK * ncols, |_, rows| {
        for row in rows.chunks_exact_mut(ncols) {
            for rot in rots {
                let a = row[rot.p];
                let b = row[rot.q];
                row[rot.p] = rot.c * a - rot.s * b;
                row[rot.q] = rot.s * a + rot.c * b;
            }
        }
    });
}

/// `M <- J^T M` for a set of disjoint-plane rotations: each rotation owns
/// rows `p` and `q` exclusively, so the pairs are processed in parallel.
fn apply_row_rotations(m: &mut Matrix, rots: &[Rotation]) {
    let ncols = m.ncols();
    if odflow_par::max_threads() == 1 {
        // Serial fast path: skip the per-call row-slot and task-tuple
        // vectors. `rotate_row_pair` is the exact per-element expression
        // of the parallel path, keeping the result bit-identical for
        // every thread count.
        for rot in rots {
            rotate_row_pair(m.as_mut_slice(), ncols, rot);
        }
        return;
    }
    let mut rows: Vec<Option<&mut [f64]>> = m.as_mut_slice().chunks_mut(ncols).map(Some).collect();
    let mut tasks: Vec<(f64, f64, &mut [f64], &mut [f64])> = rots
        .iter()
        .map(|rot| {
            let row_p = rows[rot.p].take().expect("rotation planes are disjoint");
            let row_q = rows[rot.q].take().expect("rotation planes are disjoint");
            (rot.c, rot.s, row_p, row_q)
        })
        .collect();
    odflow_par::parallel_chunks(&mut tasks, 8, |_, pairs| {
        for (c, s, row_p, row_q) in pairs.iter_mut() {
            for (a_el, b_el) in row_p.iter_mut().zip(row_q.iter_mut()) {
                let a = *a_el;
                let b = *b_el;
                *a_el = *c * a - *s * b;
                *b_el = *s * a + *c * b;
            }
        }
    });
}

/// Rows per parallel block in [`off_diagonal_norm`]; fixed so the block
/// reduction is deterministic.
const OFFDIAG_ROW_BLOCK: usize = 128;

/// Frobenius norm of the strictly off-diagonal part.
///
/// Large matrices sum per-row-block partials in parallel, combined in block
/// order; small ones keep the original serial double loop. The path depends
/// only on the dimension, never the thread count.
fn off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.nrows();
    if n >= JACOBI_PARALLEL_MIN_DIM {
        let data = a.as_slice();
        return odflow_par::map_reduce(
            n,
            OFFDIAG_ROW_BLOCK,
            |rows| {
                let mut s = 0.0;
                for i in rows {
                    let row = &data[i * n..(i + 1) * n];
                    for (j, x) in row.iter().enumerate() {
                        if j != i {
                            s += x * x;
                        }
                    }
                }
                s
            },
            |x, y| x + y,
        )
        .unwrap_or(0.0)
        .sqrt();
    }
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += a[(i, j)] * a[(i, j)];
            }
        }
    }
    s.sqrt()
}

/// `M <- J^T M` for one rotation over a row-major buffer: rows `p < q`
/// (so `split_at_mut` at row `q` hands out both disjointly) become
/// `c*row_p - s*row_q` and `s*row_p + c*row_q`, element by element.
fn rotate_row_pair(data: &mut [f64], ncols: usize, rot: &Rotation) {
    let (head, tail) = data.split_at_mut(rot.q * ncols);
    let row_p = &mut head[rot.p * ncols..rot.p * ncols + ncols];
    let row_q = &mut tail[..ncols];
    for (a_el, b_el) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let a = *a_el;
        let b = *b_el;
        *a_el = rot.c * a - rot.s * b;
        *b_el = rot.s * a + rot.c * b;
    }
}

/// Applies the two-sided Jacobi rotation `J^T W J` in the `(p, q)` plane.
///
/// `W` is kept exactly symmetric, so rows `p` and `q` hold the same values
/// as columns `p` and `q`: the rows are rotated in place, the four pivot
/// entries are then set from their closed forms, and the rows are mirrored
/// into the columns.
fn apply_rotation(w: &mut Matrix, rot: &Rotation) {
    let Rotation { p, q, c, s } = *rot;
    let n = w.nrows();
    let app = w[(p, p)];
    let aqq = w[(q, q)];
    let apq = w[(p, q)];

    let data = w.as_mut_slice();
    rotate_row_pair(data, n, rot);
    data[p * n + p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    data[q * n + q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    data[p * n + q] = 0.0;
    data[q * n + p] = 0.0;
    for i in 0..n {
        if i != p && i != q {
            data[i * n + p] = data[p * n + i];
            data[i * n + q] = data[q * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        // A = V diag(lambda) V^T
        let v = &e.eigenvectors;
        let d = Matrix::from_diag(&e.eigenvalues);
        v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap()
    }

    /// The textbook two-sided rotation, walking columns `p` and `q` of
    /// `W` and `V` — what [`serial_sweep`] must reproduce to the bit.
    fn textbook_sweep(w: &mut Matrix, v: &mut Matrix) {
        let n = w.nrows();
        for p in 0..n - 1 {
            for q in p + 1..n {
                let Some(Rotation { c, s, .. }) = rotation_for(w, p, q) else { continue };
                let (app, aqq, apq) = (w[(p, p)], w[(q, q)], w[(p, q)]);
                w[(p, p)] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                w[(q, q)] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                w[(p, q)] = 0.0;
                w[(q, p)] = 0.0;
                for i in (0..n).filter(|&i| i != p && i != q) {
                    let (aip, aiq) = (w[(i, p)], w[(i, q)]);
                    w[(i, p)] = c * aip - s * aiq;
                    w[(p, i)] = w[(i, p)];
                    w[(i, q)] = s * aip + c * aiq;
                    w[(q, i)] = w[(i, q)];
                }
                for i in 0..n {
                    let (vip, viq) = (v[(i, p)], v[(i, q)]);
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }

    #[test]
    fn row_oriented_sweep_matches_textbook_rotation_bit_for_bit() {
        for n in [2usize, 7, 40, 121] {
            let x = Matrix::from_fn(n + 5, n, |i, j| {
                ((i * 31 + j * 17) % 23) as f64 - 11.0 + 1e-3 * (i as f64 * 0.7 + j as f64).sin()
            });
            let gram = x.transpose().matmul(&x).unwrap();
            let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (gram[(i, j)] + gram[(j, i)]));
            let (mut w, mut vt) = (sym.clone(), Matrix::identity(n));
            let (mut w_ref, mut v_ref) = (sym, Matrix::identity(n));
            for sweep in 0..4 {
                serial_sweep(&mut w, &mut vt);
                textbook_sweep(&mut w_ref, &mut v_ref);
                let same = |a: &Matrix, b: &Matrix| {
                    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
                };
                assert!(same(&w, &w_ref), "W differs at n={n}, sweep {sweep}");
                assert!(same(&vt.transpose(), &v_ref), "V differs at n={n}, sweep {sweep}");
            }
        }
    }

    #[test]
    fn two_by_two_known() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for lambda=3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.eigenvector(0).unwrap();
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v0[0] - v0[1]).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, 3.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 3.0, 1.0]);
        assert_eq!(e.sweeps, 0);
    }

    #[test]
    fn sorts_descending_even_with_negatives() {
        let a = Matrix::from_diag(&[-2.0, 7.0, 0.5]);
        let e = eigen_symmetric(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0, 0.5, -2.0]);
    }

    #[test]
    fn reconstruction_3x3() {
        let a =
            Matrix::from_rows(&[vec![4.0, 1.0, 0.5], vec![1.0, 3.0, 0.25], vec![0.5, 0.25, 2.0]])
                .unwrap();
        let e = eigen_symmetric(&a).unwrap();
        assert!(reconstruct(&e).approx_eq(&a, 1e-10));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Matrix::from_fn(8, 8, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(8), 1e-10));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a =
            Matrix::from_fn(6, 6, |i, j| ((i * j) as f64).sin() + if i == j { 3.0 } else { 0.0 });
        let sym = Matrix::from_fn(6, 6, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = eigen_symmetric(&sym).unwrap();
        let tr = sym.trace().unwrap();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((tr - sum).abs() < 1e-9, "trace {tr} vs eigensum {sum}");
    }

    #[test]
    fn rank_deficient_low_rank() {
        // Rank-1: outer product vv^T, eigenvalues (||v||^2, 0, 0).
        let v = [1.0, 2.0, 3.0];
        let a = Matrix::from_fn(3, 3, |i, j| v[i] * v[j]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 14.0).abs() < 1e-10);
        assert!(e.eigenvalues[1].abs() < 1e-10);
        assert!(e.eigenvalues[2].abs() < 1e-10);
        assert_eq!(e.effective_rank(1e-9), 1);
    }

    #[test]
    fn variance_captured_monotone() {
        let a = Matrix::from_diag(&[4.0, 3.0, 2.0, 1.0]);
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.variance_captured(1) - 0.4).abs() < 1e-12);
        assert!((e.variance_captured(4) - 1.0).abs() < 1e-12);
        assert!(e.variance_captured(2) > e.variance_captured(1));
        assert_eq!(e.variance_captured(0), 0.0);
    }

    #[test]
    fn rejects_rectangular_and_asymmetric() {
        assert!(matches!(
            eigen_symmetric(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let a = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NotSymmetric { .. })));
    }

    #[test]
    fn rejects_nonfinite() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(eigen_symmetric(&a), Err(LinalgError::NonFinite { .. })));
    }

    #[test]
    fn empty_matrix_ok() {
        let e = eigen_symmetric(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn tolerates_tiny_asymmetry() {
        // Asymmetry at 1e-12 relative is well within the default tolerance.
        let mut a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        a[(0, 1)] += 1e-13;
        let e = eigen_symmetric(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tournament_covers_every_pair_once() {
        for &m in &[4usize, 8, 10] {
            let mut seen = std::collections::HashSet::new();
            for round in 0..m - 1 {
                let mut in_round = std::collections::HashSet::new();
                for k in 0..m / 2 {
                    let (i, j) = tournament_pair(m, round, k);
                    assert_ne!(i, j);
                    assert!(in_round.insert(i), "index {i} repeated in round {round}");
                    assert!(in_round.insert(j), "index {j} repeated in round {round}");
                    seen.insert((i.min(j), i.max(j)));
                }
            }
            assert_eq!(seen.len(), m * (m - 1) / 2, "m={m}");
        }
    }

    #[test]
    fn parallel_ordering_reconstructs_and_stays_orthonormal() {
        // Large enough to take the round-robin parallel path.
        let n = JACOBI_PARALLEL_MIN_DIM;
        let b = Matrix::from_fn(n + 40, n, |i, j| {
            (((i * 31 + j * 17) % 257) as f64 / 257.0 - 0.5) + if i == j { 0.5 } else { 0.0 }
        });
        let a = b.transpose().matmul(&b).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-8), "V^T V != I");
        assert!(reconstruct(&e).approx_eq(&a, 1e-6 * a.max_abs()), "A != V L V^T");
        for win in e.eigenvalues.windows(2) {
            assert!(win[0] >= win[1] - 1e-9);
        }
    }

    #[test]
    fn parallel_ordering_is_thread_count_invariant() {
        let n = JACOBI_PARALLEL_MIN_DIM;
        let a = Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (1.0 + lo) / (2.0 + hi) + if i == j { 3.0 } else { 0.0 }
        });
        let serial = odflow_par::with_thread_limit(1, || eigen_symmetric(&a).unwrap());
        let wide = odflow_par::with_thread_limit(8, || eigen_symmetric(&a).unwrap());
        assert_eq!(serial.eigenvalues, wide.eigenvalues, "eigenvalues must be bit-identical");
        assert_eq!(
            serial.eigenvectors.as_slice(),
            wide.eigenvectors.as_slice(),
            "eigenvectors must be bit-identical"
        );
    }

    #[test]
    fn forced_orderings_agree_on_the_same_eigensystem() {
        // Serial cyclic and round-robin parallel orderings take different
        // rotation sequences but must land on the same eigensystem; the
        // `ordering` override exists so the justification bench can pin
        // both paths at one dimension.
        let n = 48;
        let b = Matrix::from_fn(n + 8, n, |i, j| {
            (((i * 29 + j * 13) % 127) as f64 / 127.0 - 0.5) + if i == j { 0.4 } else { 0.0 }
        });
        let a = b.transpose().matmul(&b).unwrap();
        let forced = |ordering| {
            eigen_symmetric_with(&a, JacobiOptions { ordering, ..JacobiOptions::default() })
                .unwrap()
        };
        let serial = forced(JacobiOrdering::Serial);
        let parallel = forced(JacobiOrdering::Parallel);
        for (s, p) in serial.eigenvalues.iter().zip(&parallel.eigenvalues) {
            assert!((s - p).abs() <= 1e-8 * (1.0 + s.abs()), "eigenvalue {s} vs {p}");
        }
        // And Auto at this size matches the serial ordering bit for bit —
        // n = 48 is below the crossover.
        let auto = forced(JacobiOrdering::Auto);
        assert_eq!(auto.eigenvalues, serial.eigenvalues);
        assert_eq!(auto.eigenvectors.as_slice(), serial.eigenvectors.as_slice());
    }

    #[test]
    fn tridiagonal_matches_jacobi_eigenvalues() {
        for &n in &[3usize, 8, 33, 72] {
            let b = Matrix::from_fn(n + 9, n, |i, j| {
                (((i * 29 + j * 13) % 127) as f64 / 127.0 - 0.5) + if i == j { 0.4 } else { 0.0 }
            });
            let a = b.transpose().matmul(&b).unwrap();
            let jac = eigen_symmetric(&a).unwrap();
            let tri = eigen_symmetric_tridiagonal(&a).unwrap();
            let scale = jac.eigenvalues[0].abs().max(1.0);
            for (j, t) in jac.eigenvalues.iter().zip(&tri.eigenvalues) {
                assert!((j - t).abs() <= 1e-9 * scale, "n={n}: {j} vs {t}");
            }
        }
    }

    #[test]
    fn tridiagonal_reconstructs_and_is_orthonormal() {
        let n = 96; // crosses several Householder panels
        let a = Matrix::from_fn(n, n, |i, j| {
            let lo = i.min(j) as f64;
            let hi = i.max(j) as f64;
            (1.0 + lo) / (2.0 + hi) + if i == j { 3.0 } else { 0.0 }
        });
        let e = eigen_symmetric_tridiagonal(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-9), "V^T V != I");
        assert!(reconstruct(&e).approx_eq(&a, 1e-8 * a.max_abs()), "A != V L V^T");
        for win in e.eigenvalues.windows(2) {
            assert!(win[0] >= win[1] - 1e-9, "not descending");
        }
    }

    #[test]
    fn tridiagonal_is_thread_count_invariant() {
        let n = 80;
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i.min(j) * 31 + i.max(j) * 17) % 101) as f64) / 101.0
                + if i == j { 2.0 } else { 0.0 }
        });
        let serial = odflow_par::with_thread_limit(1, || eigen_symmetric_tridiagonal(&a).unwrap());
        for &threads in &[4usize, 64] {
            let par =
                odflow_par::with_thread_limit(threads, || eigen_symmetric_tridiagonal(&a).unwrap());
            assert_eq!(par.eigenvalues, serial.eigenvalues, "threads={threads}");
            assert_eq!(
                par.eigenvectors.as_slice(),
                serial.eigenvectors.as_slice(),
                "threads={threads}"
            );
            assert_eq!(par.sweeps, serial.sweeps, "threads={threads}");
        }
    }

    #[test]
    fn tridiagonal_input_validation_matches_jacobi() {
        assert!(matches!(
            eigen_symmetric_tridiagonal(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let asym = Matrix::from_rows(&[vec![1.0, 5.0], vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            eigen_symmetric_tridiagonal(&asym),
            Err(LinalgError::NotSymmetric { .. })
        ));
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert!(matches!(eigen_symmetric_tridiagonal(&nan), Err(LinalgError::NonFinite { .. })));
        let empty = eigen_symmetric_tridiagonal(&Matrix::zeros(0, 0)).unwrap();
        assert!(empty.eigenvalues.is_empty());
    }

    #[test]
    fn tridiagonal_small_matrices_exact() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = eigen_symmetric_tridiagonal(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        let d = Matrix::from_diag(&[-2.0, 7.0, 0.5]);
        let e = eigen_symmetric_tridiagonal(&d).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0, 0.5, -2.0]);
    }

    #[test]
    fn auto_dispatch_picks_by_dimension() {
        // Below the crossover Auto is bit-identical to Jacobi.
        let n = 24;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 1.0 } else { 0.0 }
        });
        let auto = eigen_symmetric_auto(&a).unwrap();
        let jac = eigen_symmetric(&a).unwrap();
        assert_eq!(auto.eigenvalues, jac.eigenvalues);
        assert_eq!(auto.eigenvectors.as_slice(), jac.eigenvectors.as_slice());
        // At the crossover Auto is bit-identical to the tridiagonal path.
        let n = crate::backend::AUTO_TRIDIAG_MIN_DIM;
        let a = Matrix::from_fn(n, n, |i, j| {
            (((i.min(j) * 7 + i.max(j) * 3) % 41) as f64) / 41.0 + if i == j { 2.0 } else { 0.0 }
        });
        let auto = eigen_symmetric_auto(&a).unwrap();
        let tri = eigen_symmetric_tridiagonal(&a).unwrap();
        assert_eq!(auto.eigenvalues, tri.eigenvalues);
        assert_eq!(auto.eigenvectors.as_slice(), tri.eigenvectors.as_slice());
    }

    #[test]
    fn moderately_sized_psd_matrix() {
        // Covariance-like matrix: A = B^T B is PSD; all eigenvalues >= 0.
        let b = Matrix::from_fn(40, 20, |i, j| ((i * 31 + j * 17) % 101) as f64 / 101.0 - 0.5);
        let a = b.transpose().matmul(&b).unwrap();
        let e = eigen_symmetric(&a).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-9, "PSD eigenvalue went negative: {l}");
        }
        // Eigenvalues descending.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(reconstruct(&e).approx_eq(&a, 1e-8));
    }
}
