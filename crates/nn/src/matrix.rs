//! Dense row-major `f64` matrix.
//!
//! The only tensor type the classical layers need: mini-batches are
//! `[batch, features]` matrices and parameters are `[in, out]` matrices.

use crate::error::{NnError, Result};
use crate::parallel::{self, Threads};
use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use sqvae_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b)?, a);
/// # Ok::<(), sqvae_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Fewest multiply-adds in one compute-pool item of a `*_sharded`
    /// product: output rows are grouped into items of at least this much
    /// work, and a product of one item runs inline. A pool call costs a few
    /// µs, and so does each claimed item, so smaller shares cost more than
    /// they save.
    pub const SHARD_GRAIN: usize = 1 << 17;

    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `data.len() != rows·cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when rows have unequal lengths or
    /// `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1),
                actual: (0, 0),
            });
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(NnError::ShapeMismatch {
                    expected: (nrows, ncols),
                    actual: (nrows, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// A `1 × n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn check_same_shape(&self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                expected: self.shape(),
                actual: other.shape(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for different shapes.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a + b))
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for different shapes.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a - b))
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for different shapes.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other)?;
        Ok(self.zip_map(other, |a, b| a * b))
    }

    /// In-place `self += scale · other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for different shapes.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two equal-shaped matrices element-wise.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ (internal callers validate first).
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Matrix product `self · other`, on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_sharded(other, Threads::Off)
    }

    /// [`Matrix::matmul`] with its output rows on the compute pool under
    /// `threads`, in items of at least [`Matrix::SHARD_GRAIN`]
    /// multiply-adds (a smaller product runs inline). Each output element
    /// is folded by one thread in the sequential order, so the bits do not
    /// depend on `threads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul_sharded(&self, other: &Matrix, threads: Threads) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                expected: (self.cols, other.cols),
                actual: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        out.fill_rows_of_product(
            self.cols,
            threads,
            || (),
            |i, (), row| {
                fold_rows(self.row(i), &other.data, row);
            },
        );
        Ok(out)
    }

    /// `selfᵀ · other` without materializing the transpose, on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn transpose_matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.transpose_matmul_sharded(other, Threads::Off)
    }

    /// [`Matrix::transpose_matmul`] with its output rows on the compute
    /// pool, under the same grain and with the same bits as
    /// [`Matrix::matmul_sharded`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn transpose_matmul_sharded(&self, other: &Matrix, threads: Threads) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                expected: (self.rows, other.cols),
                actual: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        out.fill_rows_of_product(self.rows, threads, Vec::new, |i, column, row| {
            // Output row i folds column i of `self` over the rows of `other`.
            column.clear();
            column.extend(self.data.iter().skip(i).step_by(self.cols));
            fold_rows(column, &other.data, row);
        });
        Ok(out)
    }

    /// `self · otherᵀ` without materializing the transpose, on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when column counts disagree.
    pub fn matmul_transpose(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_transpose_sharded(other, Threads::Off)
    }

    /// [`Matrix::matmul_transpose`] with its output rows on the compute
    /// pool, under the same grain and with the same bits as
    /// [`Matrix::matmul_sharded`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when column counts disagree.
    pub fn matmul_transpose_sharded(&self, other: &Matrix, threads: Threads) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                expected: (self.rows, other.rows),
                actual: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.rows);
        out.fill_rows_of_product(
            self.cols,
            threads,
            || (),
            |i, (), row| {
                dot_rows(self.row(i), &other.data, row);
            },
        );
        Ok(out)
    }

    /// Fills this product's rows with `f(row index, scratch, row)`, where
    /// each output element takes `inner` multiply-adds. Rows are grouped
    /// into items of at least [`Matrix::SHARD_GRAIN`] multiply-adds; a
    /// product of one item, or one under a one-thread policy, runs on the
    /// calling thread, and a larger one hands its items to the compute pool
    /// under `threads`. Each row is written by one thread, so its bits do
    /// not depend on the grouping.
    fn fill_rows_of_product<S: Send>(
        &mut self,
        inner: usize,
        threads: Threads,
        init: impl Fn() -> S + Sync,
        f: impl Fn(usize, &mut S, &mut [f64]) + Sync,
    ) {
        if self.data.is_empty() {
            return;
        }
        let cols = self.cols;
        let rows_per_item = Self::SHARD_GRAIN.div_ceil((inner * cols).max(1));
        if self.rows <= rows_per_item || parallel::seats(self.rows, threads) == 1 {
            let mut scratch = init();
            for (i, row) in self.data.chunks_exact_mut(cols).enumerate() {
                f(i, &mut scratch, row);
            }
            return;
        }
        let items = self.data.chunks_mut(rows_per_item * cols);
        parallel::map_items(items, threads, init, |item, rows, scratch| {
            for (r, row) in rows.chunks_exact_mut(cols).enumerate() {
                f(item * rows_per_item + r, scratch, row);
            }
        });
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Adds a `1 × cols` row vector to every row in place (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the vector width differs.
    pub fn add_row_broadcast(&mut self, row: &Matrix) -> Result<()> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(NnError::ShapeMismatch {
                expected: (1, self.cols),
                actual: row.shape(),
            });
        }
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *o += b;
            }
        }
        Ok(())
    }

    /// Column sums as a `1 × cols` row vector (bias gradient).
    pub fn column_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Sum of every element.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of every element (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Stacks row-vectors `rows` (each `1 × cols`) into one matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for empty input or ragged widths.
    pub fn vstack(rows: &[Matrix]) -> Result<Matrix> {
        if rows.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1),
                actual: (0, 0),
            });
        }
        let cols = rows[0].cols;
        let mut data = Vec::with_capacity(rows.iter().map(|m| m.len()).sum());
        let mut total_rows = 0;
        for m in rows {
            if m.cols != cols {
                return Err(NnError::ShapeMismatch {
                    expected: (m.rows, cols),
                    actual: m.shape(),
                });
            }
            data.extend_from_slice(&m.data);
            total_rows += m.rows;
        }
        Ok(Matrix {
            rows: total_rows,
            cols,
            data,
        })
    }

    /// Horizontal slice: columns `start..end` of every row.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for an invalid range.
    pub fn columns(&self, start: usize, end: usize) -> Result<Matrix> {
        if start > end || end > self.cols {
            return Err(NnError::ShapeMismatch {
                expected: (self.rows, self.cols),
                actual: (start, end),
            });
        }
        let width = end - start;
        let mut data = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Ok(Matrix {
            rows: self.rows,
            cols: width,
            data,
        })
    }

    /// Concatenates matrices side by side (equal row counts).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for empty input or ragged heights.
    pub fn hstack(parts: &[Matrix]) -> Result<Matrix> {
        if parts.is_empty() {
            return Err(NnError::ShapeMismatch {
                expected: (1, 1),
                actual: (0, 0),
            });
        }
        let rows = parts[0].rows;
        for m in parts {
            if m.rows != rows {
                return Err(NnError::ShapeMismatch {
                    expected: (rows, m.cols),
                    actual: m.shape(),
                });
            }
        }
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let orow = out.row_mut(r);
            let mut off = 0;
            for m in parts {
                orow[off..off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
        Ok(out)
    }
}

/// Adds `Σₖ coeffs[k] · b[k]` into `out`, where `b[k]` is row k of the
/// row-major `b` (rows `out.len()` wide): in ascending k, skipping a zero
/// coefficient. A run of four non-zero coefficients shares one pass over
/// `out`, each element taking its four additions in the order four single
/// passes would, so the bits equal the per-k loop's.
fn fold_rows(coeffs: &[f64], b: &[f64], out: &mut [f64]) {
    let n = out.len();
    let b_row = |k: usize| &b[k * n..(k + 1) * n];
    let mut quads = coeffs.chunks_exact(4);
    for (q, x) in (&mut quads).enumerate() {
        let k = 4 * q;
        if x.iter().all(|&c| c != 0.0) {
            let (b0, b1, b2, b3) = (b_row(k), b_row(k + 1), b_row(k + 2), b_row(k + 3));
            for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = *o + x[0] * v0 + x[1] * v1 + x[2] * v2 + x[3] * v3;
            }
        } else {
            for (j, &c) in x.iter().enumerate() {
                axpy(c, b_row(k + j), out);
            }
        }
    }
    let k = coeffs.len() - quads.remainder().len();
    for (j, &c) in quads.remainder().iter().enumerate() {
        axpy(c, b_row(k + j), out);
    }
}

/// `out += c · b`, skipped when `c` is zero.
fn axpy(c: f64, b: &[f64], out: &mut [f64]) {
    if c == 0.0 {
        return;
    }
    for (o, &v) in out.iter_mut().zip(b) {
        *o += c * v;
    }
}

/// `out[j] = Σₖ a[k] · b[j][k]`, where `b[j]` is row j of the row-major `b`
/// (rows `a.len()` wide). Each sum starts at −0.0, as `Iterator::sum` does,
/// and adds every product in ascending k with no zero skip. Four outputs run
/// at once, each in its own accumulator.
fn dot_rows(a: &[f64], b: &[f64], out: &mut [f64]) {
    let (k, n) = (a.len(), out.len());
    let b_row = |j: usize| &b[j * k..(j + 1) * k];
    let mut quads = out.chunks_exact_mut(4);
    for (q, o) in (&mut quads).enumerate() {
        let j = 4 * q;
        let (b0, b1, b2, b3) = (b_row(j), b_row(j + 1), b_row(j + 2), b_row(j + 3));
        let mut s = [-0.0f64; 4];
        for ((((&x, &v0), &v1), &v2), &v3) in a.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
            s[0] += x * v0;
            s[1] += x * v1;
            s[2] += x * v2;
            s[3] += x * v3;
        }
        o.copy_from_slice(&s);
    }
    let rest = quads.into_remainder();
    let j = n - rest.len();
    for (q, o) in rest.iter_mut().enumerate() {
        *o = a
            .iter()
            .zip(b_row(j + q))
            .fold(-0.0, |s, (&x, &v)| s + x * v);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.sum(), 0.0);
        let f = Matrix::filled(2, 2, 1.5);
        assert_eq!(f.sum(), 6.0);
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_matmul_equals_explicit_transpose() {
        let a = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(3, 4, |r, c| (r + c) as f64 * 0.5);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_transpose_equals_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.25);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn broadcast_and_column_sums_are_adjoint() {
        let x = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let mut y = x.clone();
        y.add_row_broadcast(&b).unwrap();
        assert_eq!(y.get(2, 1), 5.0 + 20.0);
        let sums = y.column_sums();
        assert_eq!(sums.shape(), (1, 2));
        assert_eq!(sums.get(0, 0), 0.0 + 2.0 + 4.0 + 30.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 2.0]]).unwrap()
        );
        assert_eq!(
            a.sub(&b).unwrap(),
            Matrix::from_rows(&[&[-2.0, -6.0]]).unwrap()
        );
        assert_eq!(
            a.hadamard(&b).unwrap(),
            Matrix::from_rows(&[&[3.0, -8.0]]).unwrap()
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]).unwrap());
        let mut c = a.clone();
        c.add_scaled(&b, 0.5).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[2.5, 0.0]]).unwrap());
    }

    #[test]
    fn stats() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn vstack_and_hstack() {
        let a = Matrix::row_vector(&[1.0, 2.0]);
        let b = Matrix::row_vector(&[3.0, 4.0]);
        let v = Matrix::vstack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(1, 0), 3.0);
        let h = Matrix::hstack(&[v.clone(), v.clone()]).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.get(1, 2), 3.0);
        assert!(Matrix::vstack(&[]).is_err());
        assert!(Matrix::hstack(&[a, Matrix::zeros(3, 1)]).is_err());
    }

    #[test]
    fn columns_slice() {
        let m = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f64);
        let s = m.columns(1, 3).unwrap();
        assert_eq!(s, Matrix::from_rows(&[&[1.0, 2.0], &[5.0, 6.0]]).unwrap());
        assert!(m.columns(3, 2).is_err());
        assert!(m.columns(0, 5).is_err());
    }

    #[test]
    fn display_renders_all_rows() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
