//! A small dense, row-major matrix with just enough factorization support
//! for Gaussian-process regression: Cholesky decomposition, triangular
//! solves, and symmetric positive-definite linear system solution.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Build a symmetric matrix by evaluating `f(i, j)` for `j <= i` and
    /// mirroring. Useful for kernel/Gram matrices.
    pub fn from_symmetric_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = f(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Add `value` to every diagonal entry (in place). Used to add jitter /
    /// observation noise to kernel matrices.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Cholesky factorization `self = L * L^T` for a symmetric
    /// positive-definite matrix. Returns `None` when the matrix is not
    /// (numerically) positive definite.
    pub fn cholesky(&self) -> Option<Cholesky> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let mut factor = Cholesky::default();
        factor.l.reserve_exact(self.rows * (self.rows + 1) / 2);
        for i in 0..self.rows {
            if !factor.push_row(&self.row(i)[..=i]) {
                return None;
            }
        }
        Some(factor)
    }

    /// Solve the symmetric positive-definite system `self * x = b` via
    /// Cholesky, retrying with exponentially growing diagonal jitter when
    /// the matrix is numerically semi-definite. Returns `None` only if even
    /// heavy regularization fails.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(b.len(), self.rows, "rhs length must equal matrix rows");
        let mut jitter = 0.0;
        for attempt in 0..8 {
            let mut m = self.clone();
            if attempt > 0 {
                jitter = if jitter == 0.0 { 1e-10 } else { jitter * 100.0 };
                m.add_diagonal(jitter);
            }
            if let Some(ch) = m.cholesky() {
                return Some(ch.solve(b));
            }
        }
        None
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`, packed by
/// rows: row `i` holds its `i + 1` entries at offset `i (i + 1) / 2`.
///
/// Row `i` of `L` depends only on rows `0..=i` of `A`, so the factor of
/// a bordered matrix is this factor plus one [`push_row`](Self::push_row),
/// and the factor of a leading block is a [`truncate`](Self::truncate) —
/// both bit for bit what factoring from scratch produces.
#[derive(Clone, Debug, Default)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

impl Cholesky {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `L[i][j]` (zero above the diagonal).
    #[inline]
    pub fn l(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.row(i)[j]
        }
    }

    /// Row `i` of `L`, diagonal entry last.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.l[i * (i + 1) / 2..][..=i]
    }

    /// Grow the factor of an `n x n` matrix `A` into the factor of `A`
    /// bordered by one more row and column, given the lower-triangle
    /// part `A[n][0..=n]` of the new row. Returns `false`, leaving the
    /// factor as it was, when the bordered matrix is not (numerically)
    /// positive definite.
    ///
    /// # Panics
    /// Panics if `a_row.len() != self.dim() + 1`.
    pub fn push_row(&mut self, a_row: &[f64]) -> bool {
        let i = self.n;
        assert_eq!(
            a_row.len(),
            i + 1,
            "bordering row must have dim + 1 entries"
        );
        let start = self.l.len();
        self.l.reserve(i + 1);
        for (j, &a) in a_row[..i].iter().enumerate() {
            let lj = self.row(j);
            let mut sum = a;
            for (lik, ljk) in self.l[start..].iter().zip(&lj[..j]) {
                sum -= lik * ljk;
            }
            let lij = sum / lj[j];
            self.l.push(lij);
        }
        let mut sum = a_row[i];
        for lik in &self.l[start..] {
            sum -= lik * lik;
        }
        if sum <= 0.0 || !sum.is_finite() {
            self.l.truncate(start);
            return false;
        }
        self.l.push(sum.sqrt());
        self.n += 1;
        true
    }

    /// Keep only the first `rows` rows: the factor of the leading
    /// `rows x rows` block. No effect when `rows >= self.dim()`.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.n {
            self.n = rows;
            self.l.truncate(rows * (rows + 1) / 2);
        }
    }

    /// Solve `L Y = B` in place for `W` right-hand sides stored
    /// interleaved (`b[i][w]` is entry `i` of column `w`). Every column
    /// goes through the operations of a one-column forward substitution
    /// in the same order, so its result does not depend on `W` or on
    /// what the other columns hold; the `W` columns are independent
    /// dependency chains, and `L` is read once for all of them.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_lower_block<const W: usize>(&self, b: &mut [[f64; W]]) {
        assert_eq!(b.len(), self.n);
        for i in 0..self.n {
            let li = self.row(i);
            let (solved, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (&lij, yj) in li.iter().zip(solved.iter()) {
                for w in 0..W {
                    sum[w] -= lij * yj[w];
                }
            }
            for s in &mut sum {
                *s /= li[i];
            }
            rest[0] = sum;
        }
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y: Vec<[f64; 1]> = b.iter().map(|&v| [v]).collect();
        self.solve_lower_block(&mut y);
        y.into_iter().map(|[v]| v).collect()
    }

    /// Solve `L^T x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.n);
        let n = self.n;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.row(j)[i] * xj;
            }
            x[i] = sum / self.row(i)[i];
        }
        x
    }

    /// Solve `A x = b` where `A = L L^T`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log(det(A)) = 2 * sum(log(diag(L)))`.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.l(i, i).ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_solves_trivially() {
        let m = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = m.solve_spd(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!(approx(*xi, *bi, 1e-12));
        }
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let m = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let ch = m.cholesky().unwrap();
        assert!(approx(ch.l(0, 0), 2.0, 1e-12));
        assert!(approx(ch.l(1, 0), 1.0, 1e-12));
        assert!(approx(ch.l(1, 1), 2.0f64.sqrt(), 1e-12));
        assert!(approx(ch.l(0, 1), 0.0, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn solve_spd_roundtrip() {
        let m = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = vec![1.0, -1.0, 2.0];
        let b = m.matvec(&x_true);
        let x = m.solve_spd(&b).unwrap();
        for (a, e) in x.iter().zip(&x_true) {
            assert!(approx(*a, *e, 1e-10), "{a} vs {e}");
        }
    }

    #[test]
    fn solve_spd_recovers_with_jitter_on_semidefinite() {
        // Rank-1 matrix: xx^T with x = (1, 1); semi-definite. The jitter
        // retry must still produce a finite solution.
        let m = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let x = m.solve_spd(&[2.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_det_matches_direct_determinant() {
        let m = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let ch = m.cholesky().unwrap();
        // det = 4*3 - 2*2 = 8
        assert!(approx(ch.log_det(), 8.0f64.ln(), 1e-12));
    }

    #[test]
    fn from_symmetric_fn_is_symmetric() {
        let m = Matrix::from_symmetric_fn(5, |i, j| (i * 7 + j * 3) as f64);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    #[test]
    fn matvec_known_product() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_panics_on_dim_mismatch() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    /// The dense from-scratch factorization this crate shipped before the
    /// factor became growable, kept as the oracle: `L` row-major `n x n`,
    /// `None` when not positive definite.
    fn reference_cholesky(a: &Matrix) -> Option<Vec<f64>> {
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Some(l)
    }

    /// One-column forward substitution, the oracle for the block solve.
    fn reference_solve_lower(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; b.len()];
        for i in 0..b.len() {
            let mut sum = b[i];
            for (j, &yj) in y.iter().enumerate().take(i) {
                sum -= ch.l(i, j) * yj;
            }
            y[i] = sum / ch.l(i, i);
        }
        y
    }

    fn bits(ch: &Cholesky) -> Vec<u64> {
        ch.l.iter().map(|v| v.to_bits()).collect()
    }

    /// A symmetric test matrix of order `n`: `B B^T + 1e-3 I` for a
    /// random `B` (comfortably positive definite), or a wide-kernel RBF
    /// Gram matrix with no jitter, whose trailing pivots are rounding
    /// noise: most draws factor, some are rejected part-way.
    fn test_matrix(n: usize, seed: u64, near_singular: bool) -> Matrix {
        let mut rng = crate::rng_from_seed(seed);
        if near_singular {
            let pts: Vec<[f64; 2]> = (0..n).map(|_| [rng.unit(), rng.unit()]).collect();
            Matrix::from_symmetric_fn(n, |i, j| {
                let (p, q) = (pts[i], pts[j]);
                (-((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)) / 2.0).exp()
            })
        } else {
            let b: Vec<f64> = (0..n * n).map(|_| rng.unit() - 0.5).collect();
            let mut m = Matrix::from_symmetric_fn(n, |i, j| {
                (0..n).map(|k| b[i * n + k] * b[j * n + k]).sum()
            });
            m.add_diagonal(1e-3);
            m
        }
    }

    /// Grow a factor row by row until the matrix is exhausted or a row
    /// is rejected.
    fn grow(ch: &mut Cholesky, a: &Matrix) {
        while ch.dim() < a.rows() && ch.push_row(&a.row(ch.dim())[..=ch.dim()]) {}
    }

    proptest! {
        #[test]
        fn prop_factor_matches_the_dense_reference_bit_for_bit(
            n in 1usize..48, seed in 0u64..1 << 40, near_singular in 0u8..2,
        ) {
            let a = test_matrix(n, seed, near_singular == 1);
            let mut grown = Cholesky::default();
            grow(&mut grown, &a);
            match reference_cholesky(&a) {
                Some(dense) => {
                    prop_assert_eq!(grown.dim(), n);
                    for i in 0..n {
                        for j in 0..n {
                            prop_assert_eq!(grown.l(i, j).to_bits(), dense[i * n + j].to_bits());
                        }
                    }
                    prop_assert_eq!(bits(&a.cholesky().unwrap()), bits(&grown));
                }
                None => {
                    prop_assert!(grown.dim() < n);
                    prop_assert!(a.cholesky().is_none());
                }
            }
        }

        #[test]
        fn prop_truncate_then_regrow_equals_fresh(
            n in 1usize..48, keep in 0usize..48, seed in 0u64..1 << 40,
        ) {
            let a = test_matrix(n, seed, false);
            let fresh = a.cholesky().unwrap();
            let mut ch = fresh.clone();
            ch.truncate(keep);
            prop_assert_eq!(ch.dim(), keep.min(n));
            prop_assert_eq!(&bits(&ch)[..], &bits(&fresh)[..ch.l.len()]);
            grow(&mut ch, &a);
            prop_assert_eq!(bits(&ch), bits(&fresh));
        }

        #[test]
        fn prop_rejected_row_leaves_the_factor_unchanged(n in 1usize..48, seed in 0u64..1 << 40) {
            let a = test_matrix(n, seed, false);
            let mut ch = a.cholesky().unwrap();
            let before = bits(&ch);
            // A copy of the last row with half its diagonal entry leaves a
            // negative Schur complement.
            let mut dup: Vec<f64> = a.row(n - 1).to_vec();
            dup.push(0.5 * a[(n - 1, n - 1)]);
            prop_assert!(!ch.push_row(&dup));
            dup[n] = f64::NAN;
            prop_assert!(!ch.push_row(&dup));
            prop_assert_eq!(ch.dim(), n);
            prop_assert_eq!(bits(&ch), before);
        }

        #[test]
        fn prop_block_solve_equals_one_column_at_a_time(n in 1usize..48, seed in 0u64..1 << 40) {
            let ch = test_matrix(n, seed, false).cholesky().unwrap();
            let mut rng = crate::rng_from_seed(seed ^ 0xb10c);
            let mut block: Vec<[f64; 8]> = (0..n).map(|_| [0.0; 8].map(|_| rng.unit() - 0.5)).collect();
            let columns: Vec<Vec<f64>> = (0..8).map(|w| block.iter().map(|r| r[w]).collect()).collect();
            ch.solve_lower_block(&mut block);
            for (w, b) in columns.iter().enumerate() {
                let expect: Vec<u64> = reference_solve_lower(&ch, b).iter().map(|v| v.to_bits()).collect();
                let wide: Vec<u64> = block.iter().map(|r| r[w].to_bits()).collect();
                prop_assert_eq!(&wide, &expect);
                let mut one: Vec<[f64; 1]> = b.iter().map(|&v| [v]).collect();
                ch.solve_lower_block(&mut one);
                let narrow: Vec<u64> = one.iter().map(|r| r[0].to_bits()).collect();
                prop_assert_eq!(&narrow, &expect);
                let plain: Vec<u64> = ch.solve_lower(b).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&plain, &expect);
            }
        }
    }
}
