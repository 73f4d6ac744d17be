//! Dense row-major matrix of `f64`.
//!
//! [`Matrix`] is the workhorse container of the workspace: the OD-flow
//! traffic timeseries `X` (n timebins x p OD pairs) from the paper is stored
//! as one `Matrix` per traffic type. The type deliberately stays simple —
//! contiguous `Vec<f64>` storage, explicit shape checks, no views or
//! expression templates — but the hot kernels (notably [`Matrix::matmul`])
//! are blocked for cache reuse and parallelized over row blocks via
//! [`odflow_par`], with accumulation orders fixed so results do not depend
//! on the thread count.

use crate::error::{LinalgError, Result};
use std::ops::Range;

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use odflow_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// let t = m.transpose();
/// assert_eq!(t[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::ShapeMismatch`] if row lengths are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (i, cols),
                    rhs: (i, r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Creates a diagonal matrix from a slice of diagonal entries.
    pub fn from_diag(d: &[f64]) -> Self {
        let mut m = Matrix::zeros(d.len(), d.len());
        for (i, &v) in d.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has zero rows or zero columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Bounds-checked element access.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Borrow row `i` as a slice.
    ///
    /// Returns [`LinalgError::OutOfBounds`] if `i >= nrows()`.
    pub fn row(&self, i: usize) -> Result<&[f64]> {
        if i >= self.rows {
            return Err(LinalgError::OutOfBounds { op: "row", index: i, bound: self.rows });
        }
        Ok(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Mutably borrow row `i` as a slice.
    pub fn row_mut(&mut self, i: usize) -> Result<&mut [f64]> {
        if i >= self.rows {
            return Err(LinalgError::OutOfBounds { op: "row_mut", index: i, bound: self.rows });
        }
        Ok(&mut self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Copy column `j` into a new `Vec`.
    ///
    /// Returns [`LinalgError::OutOfBounds`] if `j >= ncols()`.
    pub fn col(&self, j: usize) -> Result<Vec<f64>> {
        if j >= self.cols {
            return Err(LinalgError::OutOfBounds { op: "col", index: j, bound: self.cols });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + j]).collect())
    }

    /// Set column `j` from a slice of length `nrows()` (test oracles only).
    #[cfg(test)]
    pub(crate) fn set_col(&mut self, j: usize, v: &[f64]) -> Result<()> {
        if j >= self.cols {
            return Err(LinalgError::OutOfBounds { op: "set_col", index: j, bound: self.cols });
        }
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "set_col",
                lhs: (self.rows, 1),
                rhs: (v.len(), 1),
            });
        }
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
        Ok(())
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Blocked i-k-j kernel: the output is cut into independent blocks
    /// (parallelized across the persistent [`odflow_par`] pool) and the k
    /// loop is tiled so the active slice of `rhs` stays cache-resident.
    /// Blocks are bands of rows — unless the output is short and wide
    /// (18 x 90 000 is one row band and a sliver), when they are bands of
    /// columns instead, each small enough that its slice of `rhs` is read
    /// from memory once. Inside a block, a 2-row × 4-k register-tiled
    /// micro-kernel (`matmul_tile_2x4`) runs fixed-width,
    /// autovectorization-friendly inner loops; every output element still
    /// accumulates in ascending-k order, so results are bit-identical to
    /// the plain loop for every thread count and either banding. Returns
    /// [`LinalgError::ShapeMismatch`] when `self.ncols() != rhs.nrows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (n, inner, m) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(n, m);
        if n == 0 || inner == 0 || m == 0 {
            return Ok(out);
        }
        let (a, b) = (&self.data, &rhs.data);
        // Small matrices run in one inline chunk (pooled dispatch is cheap
        // but not free); the split affects scheduling only, never
        // accumulation order.
        let flops = n * inner * m;
        let row_block = if flops < (1 << 20) { n } else { MATMUL_ROW_BLOCK };
        if n < 4 * row_block && m >= 4 * MATMUL_COL_BLOCK {
            // Too few row bands to share out, plenty of columns.
            let mut bands = column_bands(&mut out.data, m);
            odflow_par::parallel_chunks(&mut bands, 1, |c, band| {
                matmul_block(a, inner, b, m, 0, band_cols(c, 0..m), &mut band[0]);
            });
        } else {
            odflow_par::parallel_chunks(&mut out.data, row_block * m, |blk, out_rows| {
                let mut rows: Vec<&mut [f64]> = out_rows.chunks_mut(m).collect();
                matmul_block(a, inner, b, m, blk * row_block, 0..m, &mut rows);
            });
        }
        Ok(out)
    }

    /// Matrix product with the right factor transposed, `self * rhsᵀ`, for
    /// two matrices of equal width — every output element is the dot of a
    /// row of `self` with a row of `rhs`, so neither needs transposing
    /// first. Bit-identical to `self.matmul(&rhs.transpose())` for every
    /// thread count: each element accumulates its products in ascending-k
    /// order from 0.0, in one chain, however the sweep is tiled (k is
    /// tiled so a tile of `rhs` serves every row of a band from cache, and
    /// a 2 × 4 block of elements advances together so eight independent
    /// chains hide the add latency a lone dot would stall on).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `self.ncols() != rhs.ncols()`.
    ///
    /// The row Gram folds its bands into `G` through `nt_into`; this
    /// whole-matrix form is the test oracles'.
    #[cfg(test)]
    pub(crate) fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        nt_into(&self.data, &rhs.data, self.cols, &mut out.data, true);
        Ok(out)
    }

    /// Matrix product with the left factor transposed, `selfᵀ * rhs`, for
    /// two matrices of equal height. Bit-identical to
    /// `self.transpose().matmul(rhs)` for every thread count — each output
    /// element accumulates in ascending-k order from 0.0 — without the
    /// transpose: output rows fan out in bands, and a band reads only its
    /// own columns of `self`, a slice small enough to stay cache-resident
    /// while the band is swept.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `self.nrows() != rhs.nrows()`.
    ///
    /// The fit runs `tn_block` on bands it computes itself and never forms
    /// both factors; this whole-matrix form is the test oracles'.
    #[cfg(test)]
    pub(crate) fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (n, inner, m) = (self.cols, self.rows, rhs.cols);
        let mut out = Matrix::zeros(n, m);
        if n == 0 || inner == 0 || m == 0 {
            return Ok(out);
        }
        let (a, b) = (&self.data, &rhs.data);
        let row_block = if n * inner * m < (1 << 20) { n } else { TN_ROW_BLOCK };
        odflow_par::parallel_chunks(&mut out.data, row_block * m, |blk, out_rows| {
            tn_block(a, n, b, m, blk * row_block, out_rows);
        });
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Multiply every element by a scalar, in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy of this matrix multiplied by scalar `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Frobenius norm: `sqrt(sum of squared entries)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry. Returns 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { op: "trace", shape: self.shape() });
        }
        Ok((0..self.rows).map(|i| self.data[i * self.cols + i]).sum())
    }

    /// Extract a sub-matrix of the given column indices, preserving order.
    pub fn select_cols(&self, indices: &[usize]) -> Result<Matrix> {
        for &j in indices {
            if j >= self.cols {
                return Err(LinalgError::OutOfBounds {
                    op: "select_cols",
                    index: j,
                    bound: self.cols,
                });
            }
        }
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            for (jj, &j) in indices.iter().enumerate() {
                out.data[i * indices.len() + jj] = self.data[i * self.cols + j];
            }
        }
        Ok(out)
    }

    /// Extract a sub-matrix of the given row indices, preserving order.
    #[cfg(test)]
    pub(crate) fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        for &i in indices {
            if i >= self.rows {
                return Err(LinalgError::OutOfBounds {
                    op: "select_rows",
                    index: i,
                    bound: self.rows,
                });
            }
        }
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (ii, &i) in indices.iter().enumerate() {
            out.data[ii * self.cols..(ii + 1) * self.cols]
                .copy_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
        Ok(out)
    }

    /// `true` if the matrix is symmetric to within `tol` (absolute).
    #[cfg(test)]
    pub(crate) fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|`; 0.0 for non-square.
    pub fn max_asymmetry(&self) -> f64 {
        if !self.is_square() {
            return 0.0;
        }
        let mut m = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                m = m.max((self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs());
            }
        }
        m
    }

    /// `true` if all entries are finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Approximate equality: every element within `tol` (absolute).
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(&rhs.data).all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// 2-row × 4-k register-tiled matmul micro-kernel over one k tile
/// `[k0, k1)`: `out0 += a0[k] * b[k, :]` and `out1 += a1[k] * b[k, :]`.
///
/// Four consecutive k's are folded per pass over the output rows, so the
/// row traffic (load + store per element) is paid once per four updates
/// and each `b` row load is shared by both output rows. The adds for one
/// output element are sequenced in ascending-k order — `(((o + a·b₀) +
/// a·b₁) + a·b₂) + a·b₃` — exactly the order the plain one-k-at-a-time
/// loop produces, so the unroll never changes a bit of the result. The
/// fixed-width zip chain keeps the inner loop free of bounds checks for
/// the autovectorizer.
#[allow(clippy::too_many_arguments)]
fn matmul_tile_2x4(
    a0: &[f64],
    a1: &[f64],
    b: &[f64],
    out0: &mut [f64],
    out1: &mut [f64],
    m: usize,
    cols: &Range<usize>,
    k0: usize,
    k1: usize,
) {
    let b_row = |k: usize| &b[k * m + cols.start..k * m + cols.end];
    let mut k = k0;
    while k + 4 <= k1 {
        let (a00, a01, a02, a03) = (a0[k], a0[k + 1], a0[k + 2], a0[k + 3]);
        let (a10, a11, a12, a13) = (a1[k], a1[k + 1], a1[k + 2], a1[k + 3]);
        let (b0, b1, b2, b3) = (b_row(k), b_row(k + 1), b_row(k + 2), b_row(k + 3));
        let rows = out0.iter_mut().zip(out1.iter_mut());
        let cols = b0.iter().zip(b1).zip(b2).zip(b3);
        for ((o0, o1), (((&b0j, &b1j), &b2j), &b3j)) in rows.zip(cols) {
            let mut acc0 = *o0;
            acc0 += a00 * b0j;
            acc0 += a01 * b1j;
            acc0 += a02 * b2j;
            acc0 += a03 * b3j;
            *o0 = acc0;
            let mut acc1 = *o1;
            acc1 += a10 * b0j;
            acc1 += a11 * b1j;
            acc1 += a12 * b2j;
            acc1 += a13 * b3j;
            *o1 = acc1;
        }
        k += 4;
    }
    // k remainder (tile length not a multiple of 4): one k at a time, still
    // ascending, still sharing the b row across both output rows.
    while k < k1 {
        let (a0k, a1k) = (a0[k], a1[k]);
        for ((o0, o1), &bkj) in out0.iter_mut().zip(out1.iter_mut()).zip(b_row(k)) {
            *o0 += a0k * bkj;
            *o1 += a1k * bkj;
        }
        k += 1;
    }
}

/// Single-row variant of `matmul_tile_2x4` for the trailing odd output row
/// of a block. Same ascending-k accumulation order.
fn matmul_tile_1x4(
    a_row: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    cols: &Range<usize>,
    k0: usize,
    k1: usize,
) {
    let b_row = |k: usize| &b[k * m + cols.start..k * m + cols.end];
    let mut k = k0;
    while k + 4 <= k1 {
        let (ak0, ak1, ak2, ak3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let (b0, b1, b2, b3) = (b_row(k), b_row(k + 1), b_row(k + 2), b_row(k + 3));
        let cols = b0.iter().zip(b1).zip(b2).zip(b3);
        for (o, (((&b0j, &b1j), &b2j), &b3j)) in out.iter_mut().zip(cols) {
            let mut acc = *o;
            acc += ak0 * b0j;
            acc += ak1 * b1j;
            acc += ak2 * b2j;
            acc += ak3 * b3j;
            *o = acc;
        }
        k += 4;
    }
    while k < k1 {
        let ak = a_row[k];
        for (o, &bkj) in out.iter_mut().zip(b_row(k)) {
            *o += ak * bkj;
        }
        k += 1;
    }
}

/// One block of [`Matrix::matmul`]'s output: `rows[r]` holds columns `cols`
/// of output row `i0 + r` and gains `a[i0 + r, :] * b[:, cols]`, for `a`
/// row-major `_ x inner` and `b` row-major `inner x m`.
fn matmul_block(
    a: &[f64],
    inner: usize,
    b: &[f64],
    m: usize,
    i0: usize,
    cols: Range<usize>,
    rows: &mut [&mut [f64]],
) {
    // k-tiling re-walks each output row once per tile, so it only pays when
    // the block's slice of `b` is too big to stay cache-resident across a
    // full k pass. Per-element accumulation stays in ascending-k order
    // either way, so the tile choice never changes results.
    let kb = if inner * cols.len() <= (1 << 19) { inner } else { 64 };
    let a_row = |i: usize| &a[i * inner..(i + 1) * inner];
    rows.iter_mut().for_each(|row| touch_zeroed(row));
    for k0 in (0..inner).step_by(kb) {
        let k1 = (k0 + kb).min(inner);
        // Row pairs through the register-tiled micro-kernel; a trailing
        // odd row takes the single-row kernel.
        let mut pairs = rows.chunks_exact_mut(2);
        let mut i = i0;
        for pair in &mut pairs {
            let (out0, out1) = pair.split_at_mut(1);
            matmul_tile_2x4(a_row(i), a_row(i + 1), b, out0[0], out1[0], m, &cols, k0, k1);
            i += 2;
        }
        if let [tail] = pairs.into_remainder() {
            matmul_tile_1x4(a_row(i), b, tail, m, &cols, k0, k1);
        }
    }
}

/// Writes zero over a product task's block of the freshly allocated, still
/// all-zero output before the task starts accumulating into it. The
/// allocator hands a large zeroed matrix over as untouched pages, and a
/// page whose first access is the read half of a `+=` is faulted in twice
/// (the shared zero page, then a private copy on the store); with two
/// pool workers doing that at once, an 18 x 90 000 product took 54 ms on
/// the reference VM against 8 ms when every page's first access is this
/// store.
fn touch_zeroed(block: &mut [f64]) {
    block.fill(0.0);
}

/// Elements `k` of row `r` of a row-major matrix `width` wide.
fn k_tile<'a>(data: &'a [f64], width: usize, r: usize, k: &Range<usize>) -> &'a [f64] {
    &data[r * width + k.start..r * width + k.end]
}

/// The body of [`Matrix::matmul_nt`]: `out` (row-major `n x m`) gains
/// `a · bᵀ` for row-major `a` (`n x inner`) and `b` (`m x inner`). Tasks
/// are bands of output rows; each walks the reduction in [`NT_K_TILE`]
/// tiles so a tile of `b` serves every row of the band from cache, and
/// advances a 2 × 4 block of elements at a time. Every element continues
/// its one ascending-k chain from its current value, so folding a wide
/// product into `out` tile by tile, or call by call over consecutive
/// column ranges, is bit-identical to one call over the whole range.
/// `fresh` marks a newly allocated all-zero `out`, which each task stores
/// over before reading (see [`touch_zeroed`]).
pub(crate) fn nt_into(a: &[f64], b: &[f64], inner: usize, out: &mut [f64], fresh: bool) {
    if inner == 0 || a.is_empty() || b.is_empty() {
        return;
    }
    let (n, m) = (a.len() / inner, b.len() / inner);
    let row_block = if n * inner * m < (1 << 20) { n } else { NT_ROW_BLOCK };
    odflow_par::parallel_chunks(out, row_block * m, |blk, out_rows| {
        if fresh {
            touch_zeroed(out_rows);
        }
        for k0 in (0..inner).step_by(NT_K_TILE) {
            let k = k0..(k0 + NT_K_TILE).min(inner);
            // Row `r`'s share of this k tile. A 2 x 4 block of elements
            // that hangs over the last row or column of the output repeats
            // that row; the repeats' sums are computed and dropped.
            let tile = |data, r: usize, last: usize| k_tile(data, inner, r.min(last), &k);
            for (pair, out_pair) in out_rows.chunks_mut(2 * m).enumerate() {
                let i = blk * row_block + 2 * pair;
                let (out0, out1) = out_pair.split_at_mut(m);
                let (a0, a1) = (tile(a, i, n - 1), tile(a, i + 1, n - 1));
                for j in (0..m).step_by(4) {
                    let w = (m - j).min(4);
                    let mut acc = [[0.0f64; 4]; 2];
                    acc[0][..w].copy_from_slice(&out0[j..j + w]);
                    if !out1.is_empty() {
                        acc[1][..w].copy_from_slice(&out1[j..j + w]);
                    }
                    let b_rows = std::array::from_fn(|l| tile(b, j + l, m - 1));
                    dot_tile_2x4(a0, a1, b_rows, &mut acc);
                    out0[j..j + w].copy_from_slice(&acc[0][..w]);
                    if !out1.is_empty() {
                        out1[j..j + w].copy_from_slice(&acc[1][..w]);
                    }
                }
            }
        }
    });
}

/// Output rows `i0..` of `aᵀ b` for row-major `a` (`_ x n`) and `b`
/// (`_ x m`), written over `out_rows` (whole rows, `m` wide): each element
/// accumulates `a[k, i] · b[k, j]` in ascending-k order from 0.0. The body
/// of [`Matrix::matmul_tn`].
pub(crate) fn tn_block(a: &[f64], n: usize, b: &[f64], m: usize, i0: usize, out_rows: &mut [f64]) {
    touch_zeroed(out_rows);
    for (i, out_row) in (i0..).zip(out_rows.chunks_mut(m)) {
        for (k, b_row) in b.chunks_exact(m).enumerate() {
            let aki = a[k * n + i];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aki * bkj;
            }
        }
    }
}

/// Cuts every row of a row-major buffer `width` wide into
/// [`MATMUL_COL_BLOCK`]-column pieces: band `c` holds columns
/// [`band_cols`]`(c, 0..width)` of every row, in row order.
pub(crate) fn column_bands(data: &mut [f64], width: usize) -> Vec<Vec<&mut [f64]>> {
    let rows = data.len() / width.max(1);
    let mut bands: Vec<Vec<&mut [f64]>> =
        (0..width.div_ceil(MATMUL_COL_BLOCK)).map(|_| Vec::with_capacity(rows)).collect();
    for row in data.chunks_mut(width.max(1)) {
        for (band, cells) in bands.iter_mut().zip(row.chunks_mut(MATMUL_COL_BLOCK)) {
            band.push(cells);
        }
    }
    bands
}

/// The columns of band `c` of the column range `span`.
pub(crate) fn band_cols(c: usize, span: Range<usize>) -> Range<usize> {
    let c0 = span.start + c * MATMUL_COL_BLOCK;
    c0..(c0 + MATMUL_COL_BLOCK).min(span.end)
}

/// The 2 × 4 block of dots `a_r · b_c` behind [`Matrix::matmul_nt`], over
/// one k tile: `acc[r][c]` gains `a_r[k] * b_c[k]` for every `k` of the
/// (equal-length) slices, ascending — eight separate chains, each the
/// order a lone dot product would take.
fn dot_tile_2x4(a0: &[f64], a1: &[f64], b: [&[f64]; 4], acc: &mut [[f64; 4]; 2]) {
    let [b0, b1, b2, b3] = b;
    let [mut s00, mut s01, mut s02, mut s03] = acc[0];
    let [mut s10, mut s11, mut s12, mut s13] = acc[1];
    let a = a0.iter().zip(a1);
    let b = b0.iter().zip(b1).zip(b2).zip(b3);
    for ((&x0, &x1), (((&y0, &y1), &y2), &y3)) in a.zip(b) {
        s00 += x0 * y0;
        s01 += x0 * y1;
        s02 += x0 * y2;
        s03 += x0 * y3;
        s10 += x1 * y0;
        s11 += x1 * y1;
        s12 += x1 * y2;
        s13 += x1 * y3;
    }
    *acc = [[s00, s01, s02, s03], [s10, s11, s12, s13]];
}

/// Output rows per parallel task of [`Matrix::matmul`]; fixed, like every
/// block size here, so the decomposition depends on the shapes alone.
const MATMUL_ROW_BLOCK: usize = 16;

/// Output columns per task when [`Matrix::matmul`] bands a short, wide
/// product by columns: with a few dozen rows on either side, a band's
/// slices of `rhs` and of the output are a few hundred kB — cache-sized.
pub(crate) const MATMUL_COL_BLOCK: usize = 1024;

/// Output rows per task of [`Matrix::matmul_nt`]: every task streams all
/// of `rhs` once, so bands are as tall as still leaves the row Gram of a
/// short window (24 rows) several tasks to share out.
const NT_ROW_BLOCK: usize = 4;

/// Reduction-dimension tile of [`Matrix::matmul_nt`]: 2 kB of each row.
const NT_K_TILE: usize = 256;

/// Output rows per task of [`Matrix::matmul_tn`].
#[cfg(test)]
const TN_ROW_BLOCK: usize = 1024;

/// Rows per parallel task in [`symv_block`]; fixed so the decomposition —
/// and therefore the result — depends only on the problem size. 256
/// because the Householder panel calls this once per column and a region
/// costs 13–50 µs once a second thread is woken, against a few µs for all
/// 120 dot products of the paper's largest trailing block: up to 256 rows
/// the region is one task, which `odflow_par` runs on the caller.
const SYMV_ROW_BLOCK: usize = 256;

/// Trailing-block symmetric matvec: for an `n x n` row-major `data` and a
/// vector `v` of length `n - lo`, returns `y[i - lo] = data[i, lo..n] · v`
/// for `i in lo..n`.
///
/// This is the workhorse of the blocked Householder panel (`w = A v` over
/// the not-yet-reduced trailing block, addressed in place — no submatrix
/// copies). Rows fan out over the pool in [`SYMV_ROW_BLOCK`] blocks and
/// each row is one [`crate::vecops::dot4`], so the arithmetic per output
/// element is a pure function of `(n, lo)` — bit-identical for every
/// thread count.
pub(crate) fn symv_block(data: &[f64], n: usize, lo: usize, v: &[f64]) -> Vec<f64> {
    let m = n - lo;
    debug_assert_eq!(v.len(), m);
    let per_row = odflow_par::map_chunks(m, SYMV_ROW_BLOCK, |rows| {
        let mut out = Vec::with_capacity(rows.len());
        for r in rows {
            let i = lo + r;
            out.push(crate::vecops::dot4(&data[i * n + lo..(i + 1) * n], v));
        }
        out
    });
    let mut y = Vec::with_capacity(m);
    for block in per_row {
        y.extend_from_slice(&block);
    }
    y
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "matrix index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "matrix index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    /// Compact display used in error messages and examples; large matrices
    /// are elided to their corners.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX: usize = 6;
        for i in 0..self.rows.min(MAX) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(MAX) {
                write!(f, "{:>12.5e} ", self.data[i * self.cols + j])?;
            }
            if self.cols > MAX {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > MAX {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 4).is_empty());
    }

    #[test]
    fn identity_diagonal() {
        let i3 = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i3[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(matches!(e, Err(LinalgError::ShapeMismatch { .. })));
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty { .. })));
    }

    #[test]
    fn row_col_access() {
        let m = m22();
        assert_eq!(m.row(0).unwrap(), &[1.0, 2.0]);
        assert_eq!(m.col(1).unwrap(), vec![2.0, 4.0]);
        assert!(m.row(2).is_err());
        assert!(m.col(2).is_err());
        assert_eq!(m.get(1, 1), Some(4.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.col(1).unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(m.set_col(5, &[0.0; 3]).is_err());
        assert!(m.set_col(0, &[0.0; 2]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.transpose(), m);
        assert_eq!(m[(2, 4)], t[(4, 2)]);
    }

    #[test]
    fn matmul_known() {
        let a = m22();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64 + 0.25);
        let i4 = Matrix::identity(4);
        assert!(a.matmul(&i4).unwrap().approx_eq(&a, 1e-15));
        assert!(i4.matmul(&a).unwrap().approx_eq(&a, 1e-15));
    }

    #[test]
    fn matmul_unrolled_matches_naive_bitwise() {
        // The 2x4 register tile must reproduce the plain ascending-k
        // triple loop bit for bit, across odd/even row counts and k
        // remainders 0..3, under any thread limit.
        // The last two shapes are short and wide enough to be banded by
        // columns (an odd row count and a ragged last band; a k tile of 64).
        for &(n, inner, m) in &[
            (1usize, 1usize, 1usize),
            (2, 4, 3),
            (3, 5, 2),
            (7, 9, 11),
            (16, 13, 6),
            (33, 66, 15),
            (5, 7, 4 * MATMUL_COL_BLOCK + 3),
            (18, 600, 4 * MATMUL_COL_BLOCK),
        ] {
            let a = Matrix::from_fn(n, inner, |i, j| ((i * 37 + j * 11) % 97) as f64 / 97.0 - 0.31);
            let b = Matrix::from_fn(inner, m, |i, j| ((i * 23 + j * 41) % 89) as f64 / 89.0 + 0.07);
            let mut naive = Matrix::zeros(n, m);
            for i in 0..n {
                for k in 0..inner {
                    let aik = a[(i, k)];
                    for j in 0..m {
                        naive[(i, j)] += aik * b[(k, j)];
                    }
                }
            }
            for threads in [1usize, 4] {
                let got = odflow_par::with_thread_limit(threads, || a.matmul(&b).unwrap());
                assert_eq!(
                    got.as_slice(),
                    naive.as_slice(),
                    "n={n} inner={inner} m={m} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn transposed_factor_products_match_transpose_then_matmul_bitwise() {
        // Shapes cover odd row counts, column counts off the 4-wide tile,
        // reductions shorter than, equal to and ragged against the k tile,
        // and sizes on both sides of the inline/banded split.
        for &(n, inner, m) in &[
            (1usize, 1usize, 1usize),
            (2, 4, 3),
            (3, NT_K_TILE, 5),
            (7, 2 * NT_K_TILE + 9, 6),
            (18, 5000, 24),
            (9, 3000, 41),
            (2 * TN_ROW_BLOCK + 5, 6, 7),
        ] {
            let a = Matrix::from_fn(n, inner, |i, j| ((i * 37 + j * 11) % 97) as f64 / 97.0 - 0.31);
            let b = Matrix::from_fn(m, inner, |i, j| ((i * 23 + j * 41) % 89) as f64 / 89.0 - 0.4);
            let nt = a.matmul(&b.transpose()).unwrap();
            let (at, bt) = (a.transpose(), b.transpose());
            let tn = a.matmul(&bt).unwrap();
            for threads in [1usize, 2, 5] {
                odflow_par::with_thread_limit(threads, || {
                    let tag = format!("n={n} inner={inner} m={m} threads={threads}");
                    assert_eq!(a.matmul_nt(&b).unwrap().as_slice(), nt.as_slice(), "nt {tag}");
                    assert_eq!(at.matmul_tn(&bt).unwrap().as_slice(), tn.as_slice(), "tn {tag}");
                });
            }
        }
        assert!(Matrix::zeros(2, 3).matmul_nt(&Matrix::zeros(2, 4)).is_err());
        assert!(Matrix::zeros(2, 3).matmul_tn(&Matrix::zeros(3, 3)).is_err());
        assert_eq!(Matrix::zeros(2, 0).matmul_nt(&Matrix::zeros(3, 0)).unwrap().shape(), (2, 3));
        assert_eq!(Matrix::zeros(0, 2).matmul_tn(&Matrix::zeros(0, 3)).unwrap().shape(), (2, 3));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn symv_block_matches_dot_reference() {
        let n = SYMV_ROW_BLOCK + 6; // spans two row blocks
        let a = Matrix::from_fn(n, n, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            ((lo * 7 + hi * 3) % 17) as f64 - 8.0
        });
        for lo in [0, 7] {
            let v: Vec<f64> = (lo..n).map(|i| ((i * 11) % 5) as f64 - 2.0).collect();
            let fast = symv_block(a.as_slice(), n, lo, &v);
            let reference: Vec<f64> = (lo..n)
                .map(|i| {
                    let mut acc = 0.0;
                    for (x, y) in a.row(i).unwrap()[lo..].iter().zip(&v) {
                        acc += x * y;
                    }
                    acc
                })
                .collect();
            assert_eq!(fast.len(), n - lo);
            // Not bit-identical (dot4 vs sequential accumulation order) but tight.
            let scale: f64 = reference.iter().map(|x| x.abs()).fold(1.0, f64::max);
            for (f, r) in fast.iter().zip(&reference) {
                assert!((f - r).abs() <= 1e-12 * scale, "lo={lo}: {f} vs {r}");
            }
        }
    }

    #[test]
    fn symv_is_thread_count_invariant() {
        let n = 2 * SYMV_ROW_BLOCK + 13; // three tasks, the last ragged
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64));
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let symv = || symv_block(a.as_slice(), n, 0, &v);
        let serial = odflow_par::with_thread_limit(1, symv);
        for &threads in &[4usize, 64] {
            let par = odflow_par::with_thread_limit(threads, symv);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = m22();
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        assert_eq!(a.add(&b).unwrap()[(0, 0)], 2.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn scale_and_map() {
        let mut a = m22();
        a.scale_mut(2.0);
        assert_eq!(a[(1, 1)], 8.0);
        a.scale_mut(0.5);
        assert_eq!(a, m22());
        assert_eq!(m22().scaled(0.0).frobenius_norm(), 0.0);
    }

    #[test]
    fn frobenius_norm_known() {
        // ||[[3,4],[0,0]]||_F = 5
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn trace_square_only() {
        assert_eq!(m22().trace().unwrap(), 5.0);
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn select_cols_rows() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let c = m.select_cols(&[3, 0]).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c[(1, 0)], 7.0);
        assert_eq!(c[(1, 1)], 4.0);
        let r = m.select_rows(&[2]).unwrap();
        assert_eq!(r.row(0).unwrap(), &[8.0, 9.0, 10.0, 11.0]);
        assert!(m.select_cols(&[4]).is_err());
        assert!(m.select_rows(&[9]).is_err());
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.max_asymmetry(), 0.0);
        let a = m22();
        assert!(!a.is_symmetric(0.5));
        assert_eq!(a.max_asymmetry(), 1.0);
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn finiteness() {
        let mut m = m22();
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn display_does_not_panic() {
        let big = Matrix::zeros(10, 10);
        let s = format!("{big}");
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("..."));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_panics_out_of_bounds() {
        let m = m22();
        let _ = m[(2, 0)];
    }

    #[test]
    fn from_diag_known() {
        let d = Matrix::from_diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn max_abs_value() {
        let m = Matrix::from_rows(&[vec![-7.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.max_abs(), 7.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
    }
}
