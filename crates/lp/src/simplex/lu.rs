//! Sparse basis factorization: a block LU of the basis plus a product-form
//! eta file for the pivots since.
//!
//! Every basic slack (`e_i`) or artificial (`σ e_row`) covers one row. With
//! rows and columns permuted the basis is `[[A11, 0], [A21, D]]`, where
//! `A11` holds the basic structural columns on the rows no unit column
//! covers (the *free* rows) and `D` is the diagonal of the unit columns'
//! signs. Only the k×k block `A11` is factored, by a right-looking sparse
//! LU with Markowitz ordering and threshold partial pivoting; `A21` is read
//! straight from the structural columns, once per factorization.
//!
//! A simplex pivot leaves the factors alone and appends one eta vector, the
//! entering column's FTRAN image `w = B⁻¹ a_j`: the new inverse is `E B⁻¹`,
//! with `E` the identity but for column `r`. FTRAN applies the etas after
//! the block solve, in order; BTRAN applies them first, in reverse.

use super::Matrix;
use crate::LpError;

/// A basis column as the factorization sees it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Column {
    /// Structural variable `j`: column `j` of the constraint matrix.
    Struct(usize),
    /// `sigma · e_row`: a row slack (`sigma = 1`) or an artificial.
    Unit { row: usize, sigma: f64 },
}

/// A pivot must be at least this fraction of the largest entry of its
/// column in the active submatrix.
const THRESHOLD: f64 = 0.1;

/// A column of the active submatrix whose entries all fall below this is
/// numerically dependent on the columns already eliminated.
const SINGULAR: f64 = 1e-11;

/// Marks a row that a unit column covers, or an unset scatter slot.
const NONE: usize = usize::MAX;

/// The Markowitz search looks at this many of the sparsest columns.
const SEARCH_COLS: usize = 4;

/// The factored basis: block structure, LU factors of `A11`, eta file.
#[derive(Debug, Default)]
pub(super) struct Factor {
    m: usize,
    /// Free rows by local index.
    free: Vec<usize>,
    /// Basis position of each local structural column.
    struct_pos: Vec<usize>,
    /// `A21`: local structural column `s` has the entries
    /// `a21[a21_end[s − 1]..a21_end[s]]` as `(row, coef)` on covered rows.
    a21_end: Vec<usize>,
    a21: Vec<(usize, f64)>,
    /// Unit columns: `(basis position, row, sigma)`.
    units: Vec<(usize, usize, f64)>,
    lu: Lu,
    etas: Etas,
}

impl Factor {
    /// Factors the basis whose position `p` holds column `kind(basis[p])`.
    ///
    /// # Errors
    ///
    /// [`LpError::SingularBasis`] when two unit columns cover one row or
    /// `A11` is numerically singular.
    pub(super) fn new(
        a: &Matrix,
        basis: &[usize],
        kind: impl Fn(usize) -> Column,
    ) -> Result<Self, LpError> {
        let m = basis.len();
        let mut covered = vec![false; m];
        let mut units = Vec::new();
        let mut struct_pos = Vec::new();
        let mut struct_var = Vec::new();
        for (pos, &var) in basis.iter().enumerate() {
            match kind(var) {
                Column::Struct(j) => {
                    struct_pos.push(pos);
                    struct_var.push(j);
                }
                Column::Unit { row, sigma } => {
                    if std::mem::replace(&mut covered[row], true) {
                        return Err(LpError::SingularBasis);
                    }
                    units.push((pos, row, sigma));
                }
            }
        }
        let mut row_local = vec![NONE; m];
        let mut free = Vec::with_capacity(struct_var.len());
        for (row, _) in covered.iter().enumerate().filter(|(_, &c)| !c) {
            row_local[row] = free.len();
            free.push(row);
        }
        debug_assert_eq!(
            free.len(),
            struct_var.len(),
            "a full basis leaves k free rows"
        );
        let mut block_start = Vec::with_capacity(struct_var.len() + 1);
        let mut block = Vec::new();
        let mut a21 = Vec::new();
        let mut a21_end = Vec::with_capacity(struct_var.len());
        block_start.push(0);
        for &j in &struct_var {
            for &(i, v) in a.col(j).iter().filter(|e| e.1 != 0.0) {
                if row_local[i] == NONE {
                    a21.push((i, v));
                } else {
                    block.push((row_local[i], v));
                }
            }
            block_start.push(block.len());
            a21_end.push(a21.len());
        }
        Ok(Self {
            m,
            free,
            struct_pos,
            a21_end,
            a21,
            units,
            lu: Lu::factor(&block_start, &block)?,
            etas: Etas::default(),
        })
    }

    /// Records the pivot that put the column with FTRAN image `w` into basis
    /// position `r`.
    pub(super) fn push_eta(&mut self, r: usize, w: &[f64]) {
        let etas = &mut self.etas;
        etas.head.push((r, w[r]));
        etas.entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &wi)| i != r && wi != 0.0)
                .map(|(i, &wi)| (i, wi)),
        );
        etas.end.push(etas.entries.len());
    }

    fn a21_col(&self, s: usize) -> &[(usize, f64)] {
        let begin = if s == 0 { 0 } else { self.a21_end[s - 1] };
        &self.a21[begin..self.a21_end[s]]
    }

    /// FTRAN: `B⁻¹ v` for `v` indexed by row (left as scratch), indexed by
    /// basis position.
    pub(super) fn ftran(&self, v: &mut [f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.m];
        let k = self.free.len();
        if k > 0 {
            let mut b: Vec<f64> = self.free.iter().map(|&row| v[row]).collect();
            let mut xs = vec![0.0; k];
            self.lu.solve(&mut b, &mut xs);
            // The unit rows absorb what the structurals put on them (A21).
            for (s, &xv) in xs.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                out[self.struct_pos[s]] = xv;
                for &(i, av) in self.a21_col(s) {
                    v[i] -= av * xv;
                }
            }
        }
        for &(pos, row, sigma) in &self.units {
            out[pos] = v[row] / sigma;
        }
        self.etas.apply(&mut out);
        out
    }

    /// BTRAN: `B⁻ᵀ c` for `c` indexed by basis position (left as scratch),
    /// indexed by row.
    pub(super) fn btran(&self, c: &mut [f64]) -> Vec<f64> {
        self.etas.apply_transposed(c);
        let mut y = vec![0.0; self.m];
        for &(pos, row, sigma) in &self.units {
            y[row] = c[pos] / sigma;
        }
        let k = self.free.len();
        if k > 0 {
            let mut cs: Vec<f64> = (0..k)
                .map(|s| {
                    let mut t = c[self.struct_pos[s]];
                    for &(i, av) in self.a21_col(s) {
                        t -= y[i] * av;
                    }
                    t
                })
                .collect();
            let mut z = vec![0.0; k];
            self.lu.solve_transposed(&mut cs, &mut z);
            for (&row, &zf) in self.free.iter().zip(&z) {
                y[row] = zf;
            }
        }
        y
    }
}

/// LU factors of `A11` in elimination order: step `p` pivoted on local row
/// `prow[p]` and local column `pcol[p]`.
#[derive(Debug, Default)]
struct Lu {
    prow: Vec<usize>,
    pcol: Vec<usize>,
    /// Step `p`'s multipliers `(local row, l)` end at `l_end[p]`.
    l_end: Vec<usize>,
    l: Vec<(usize, f64)>,
    /// Row `p` of U: the pivot `u_diag[p]`, then `(local column, u)` off
    /// the diagonal, ending at `u_end[p]`.
    u_diag: Vec<f64>,
    u_end: Vec<usize>,
    u: Vec<(usize, f64)>,
}

impl Lu {
    /// Factors the k×k matrix whose column `c` is
    /// `entries[col_start[c]..col_start[c + 1]]`, as `(row, value)`.
    fn factor(col_start: &[usize], entries: &[(usize, f64)]) -> Result<Self, LpError> {
        let mut active = Active::new(col_start, entries);
        let k = col_start.len() - 1;
        let mut slot = vec![NONE; k];
        let mut lu = Lu {
            prow: Vec::with_capacity(k),
            pcol: Vec::with_capacity(k),
            l_end: Vec::with_capacity(k),
            l: Vec::with_capacity(entries.len()),
            u_diag: Vec::with_capacity(k),
            u_end: Vec::with_capacity(k),
            u: Vec::with_capacity(entries.len()),
        };
        for _ in 0..k {
            let (r, c) = active.pick_pivot()?;
            active.unlink(c);
            active.col_done[c] = true;
            active.row_done[r] = true;
            // Column c leaves the active submatrix: its entries below the
            // pivot become L's multipliers.
            let mut piv = 0.0;
            let l_begin = lu.l.len();
            for &(i, v) in active.cols.line(c) {
                active.row_count[i] -= 1;
                if i == r {
                    piv = v;
                } else if active.row_count[i] == 1 {
                    active.row_single.push(i);
                }
            }
            lu.l.extend(
                active
                    .cols
                    .line(c)
                    .iter()
                    .filter(|e| e.0 != r)
                    .map(|&(i, v)| (i, v / piv)),
            );
            let l = &lu.l[l_begin..];
            // Row r leaves too: its entries become U's row, and each column
            // it touches takes the rank-one Schur update.
            for at_r in 0..active.rows.line(r).len() {
                let c2 = active.rows.line(r)[at_r];
                if active.col_done[c2] {
                    continue;
                }
                let Some(at) = active.cols.line(c2).iter().position(|e| e.0 == r) else {
                    continue;
                };
                active.unlink(c2);
                let u = active.cols.swap_remove(c2, at).1;
                lu.u.push((c2, u));
                if u != 0.0 && !l.is_empty() {
                    for (idx, &(i, _)) in active.cols.line(c2).iter().enumerate() {
                        slot[i] = idx;
                    }
                    for &(i, li) in l {
                        if slot[i] == NONE {
                            active.cols.push(c2, (i, -li * u));
                            active.rows.push(i, c2);
                            active.row_count[i] += 1;
                        } else {
                            active.cols.line_mut(c2)[slot[i]].1 -= li * u;
                        }
                    }
                    for &(i, _) in active.cols.line(c2) {
                        slot[i] = NONE;
                    }
                }
                active.link(c2);
            }
            lu.prow.push(r);
            lu.pcol.push(c);
            lu.l_end.push(lu.l.len());
            lu.u_diag.push(piv);
            lu.u_end.push(lu.u.len());
        }
        Ok(lu)
    }

    /// Nonzeros of L and U, the diagonal included.
    #[cfg(test)]
    fn nnz(&self) -> usize {
        self.l.len() + self.u.len() + self.u_diag.len()
    }

    fn l_col(&self, p: usize) -> &[(usize, f64)] {
        let begin = if p == 0 { 0 } else { self.l_end[p - 1] };
        &self.l[begin..self.l_end[p]]
    }

    fn u_row(&self, p: usize) -> &[(usize, f64)] {
        let begin = if p == 0 { 0 } else { self.u_end[p - 1] };
        &self.u[begin..self.u_end[p]]
    }

    /// Solves `A11 x = b`: `b` by local row (overwritten), `x` by local
    /// column.
    fn solve(&self, b: &mut [f64], x: &mut [f64]) {
        for (p, &r) in self.prow.iter().enumerate() {
            let v = b[r];
            if v != 0.0 {
                for &(i, l) in self.l_col(p) {
                    b[i] -= l * v;
                }
            }
        }
        for p in (0..self.prow.len()).rev() {
            let mut s = b[self.prow[p]];
            for &(c, u) in self.u_row(p) {
                s -= u * x[c];
            }
            x[self.pcol[p]] = s / self.u_diag[p];
        }
    }

    /// Solves `A11ᵀ y = c`: `c` by local column (overwritten), `y` by local
    /// row.
    fn solve_transposed(&self, c: &mut [f64], y: &mut [f64]) {
        for (p, &col) in self.pcol.iter().enumerate() {
            let z = c[col] / self.u_diag[p];
            y[self.prow[p]] = z;
            if z != 0.0 {
                for &(c2, u) in self.u_row(p) {
                    c[c2] -= u * z;
                }
            }
        }
        for p in (0..self.prow.len()).rev() {
            let mut s = y[self.prow[p]];
            for &(i, l) in self.l_col(p) {
                s -= l * y[i];
            }
            y[self.prow[p]] = s;
        }
    }
}

/// Sparse lines (columns or rows) sharing one array, each in a segment
/// with room to grow; a line that outgrows its segment moves to the end.
#[derive(Debug)]
struct Lines<T> {
    start: Vec<usize>,
    len: Vec<usize>,
    cap: Vec<usize>,
    data: Vec<T>,
}

impl<T: Copy + Default> Lines<T> {
    /// Empty lines with room for `lens[l]` entries plus some fill-in.
    fn with_room(lens: &[usize]) -> Self {
        let cap: Vec<usize> = lens.iter().map(|&n| n + 4).collect();
        let mut start = Vec::with_capacity(lens.len());
        let mut end = 0;
        for &c in &cap {
            start.push(end);
            end += c;
        }
        Self {
            start,
            len: vec![0; lens.len()],
            cap,
            data: vec![T::default(); end],
        }
    }

    fn line(&self, l: usize) -> &[T] {
        &self.data[self.start[l]..self.start[l] + self.len[l]]
    }

    fn line_mut(&mut self, l: usize) -> &mut [T] {
        &mut self.data[self.start[l]..self.start[l] + self.len[l]]
    }

    fn push(&mut self, l: usize, v: T) {
        if self.len[l] == self.cap[l] {
            let old = self.start[l];
            self.start[l] = self.data.len();
            self.cap[l] = 2 * self.len[l] + 4;
            self.data.extend_from_within(old..old + self.len[l]);
            self.data.resize(self.start[l] + self.cap[l], T::default());
        }
        self.data[self.start[l] + self.len[l]] = v;
        self.len[l] += 1;
    }

    fn swap_remove(&mut self, l: usize, at: usize) -> T {
        let last = self.start[l] + self.len[l] - 1;
        self.data.swap(self.start[l] + at, last);
        self.len[l] -= 1;
        self.data[last]
    }
}

/// The active submatrix of the elimination: columns with values, rows as
/// patterns. A finished column stays listed in the row patterns and is
/// skipped; `row_count` counts a row's unfinished columns.
struct Active {
    cols: Lines<(usize, f64)>,
    rows: Lines<usize>,
    row_count: Vec<usize>,
    col_done: Vec<bool>,
    row_done: Vec<bool>,
    /// Unfinished columns by entry count: `head[n]` starts a doubly linked
    /// list through `next`/`prev` of the columns with `n` entries.
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// Rows that were singletons when pushed (checked again when popped).
    row_single: Vec<usize>,
}

impl Active {
    fn new(col_start: &[usize], entries: &[(usize, f64)]) -> Self {
        let k = col_start.len() - 1;
        let col_lens: Vec<usize> = col_start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut row_count = vec![0; k];
        for &(r, _) in entries {
            row_count[r] += 1;
        }
        let mut cols = Lines::with_room(&col_lens);
        let mut rows = Lines::with_room(&row_count);
        for c in 0..k {
            for &e in &entries[col_start[c]..col_start[c + 1]] {
                cols.push(c, e);
                rows.push(e.0, c);
            }
        }
        let mut active = Self {
            row_single: (0..k).filter(|&r| row_count[r] == 1).collect(),
            cols,
            rows,
            row_count,
            col_done: vec![false; k],
            row_done: vec![false; k],
            head: vec![NONE; k + 1],
            next: vec![NONE; k],
            prev: vec![NONE; k],
        };
        for c in (0..k).rev() {
            active.link(c);
        }
        active
    }

    /// Files column `c` under its current entry count.
    fn link(&mut self, c: usize) {
        let n = self.cols.line(c).len();
        self.prev[c] = NONE;
        self.next[c] = self.head[n];
        if self.head[n] != NONE {
            self.prev[self.head[n]] = c;
        }
        self.head[n] = c;
    }

    /// Takes column `c` out of its count's list (before its count changes).
    fn unlink(&mut self, c: usize) {
        let (p, n) = (self.prev[c], self.next[c]);
        if p == NONE {
            self.head[self.cols.line(c).len()] = n;
        } else {
            self.next[p] = n;
        }
        if n != NONE {
            self.prev[n] = p;
        }
    }

    fn col_max(&self, c: usize) -> f64 {
        self.cols
            .line(c)
            .iter()
            .fold(0.0f64, |mx, e| mx.max(e.1.abs()))
    }

    /// Chooses the next pivot `(row, column)`: a singleton column or an
    /// acceptable singleton row when one is left (Markowitz cost 0),
    /// otherwise, among the entries of the [`SEARCH_COLS`] sparsest columns
    /// that pass the threshold, the one of least Markowitz cost
    /// `(row count − 1)·(column count − 1)`, ties going to the larger
    /// magnitude.
    fn pick_pivot(&mut self) -> Result<(usize, usize), LpError> {
        if self.head[0] != NONE {
            return Err(LpError::SingularBasis);
        }
        let c = self.head[1];
        if c != NONE {
            let (r, v) = self.cols.line(c)[0];
            if v.abs() < SINGULAR {
                return Err(LpError::SingularBasis);
            }
            return Ok((r, c));
        }
        while let Some(r) = self.row_single.pop() {
            if self.row_done[r] || self.row_count[r] != 1 {
                continue;
            }
            let Some(c) = self
                .rows
                .line(r)
                .iter()
                .copied()
                .find(|&c| !self.col_done[c])
            else {
                continue;
            };
            let v = self
                .cols
                .line(c)
                .iter()
                .find(|e| e.0 == r)
                .map_or(0.0, |e| e.1.abs());
            if v >= SINGULAR && v >= THRESHOLD * self.col_max(c) {
                return Ok((r, c));
            }
        }
        let mut best: Option<(usize, f64, usize, usize)> = None;
        let sparsest = (2..self.head.len()).flat_map(|n| {
            std::iter::successors(Some(self.head[n]).filter(|&c| c != NONE), |&c| {
                Some(self.next[c]).filter(|&c| c != NONE)
            })
        });
        for c in sparsest.take(SEARCH_COLS) {
            let len = self.cols.line(c).len();
            let max = self.col_max(c);
            if max < SINGULAR {
                return Err(LpError::SingularBasis);
            }
            for &(r, v) in self.cols.line(c) {
                let v = v.abs();
                if v < THRESHOLD * max {
                    continue;
                }
                let cost = (self.row_count[r] - 1) * (len - 1);
                if best.is_none_or(|(bc, bv, _, _)| cost < bc || (cost == bc && v > bv)) {
                    best = Some((cost, v, r, c));
                }
            }
        }
        best.map(|(_, _, r, c)| (r, c))
            .ok_or(LpError::SingularBasis)
    }
}

/// Product-form updates since the last factorization: eta `e` replaced
/// basis position `head[e].0` with a column whose FTRAN image had pivot
/// `head[e].1` and the other nonzeros `entries[end[e − 1]..end[e]]`.
#[derive(Debug, Default)]
struct Etas {
    head: Vec<(usize, f64)>,
    end: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Etas {
    fn entries(&self, e: usize) -> &[(usize, f64)] {
        let begin = if e == 0 { 0 } else { self.end[e - 1] };
        &self.entries[begin..self.end[e]]
    }

    /// `x ← E_t ⋯ E_1 x`.
    fn apply(&self, x: &mut [f64]) {
        for (e, &(r, piv)) in self.head.iter().enumerate() {
            let xr = x[r] / piv;
            x[r] = xr;
            if xr != 0.0 {
                for &(i, w) in self.entries(e) {
                    x[i] -= w * xr;
                }
            }
        }
    }

    /// `c ← E_1ᵀ ⋯ E_tᵀ c`.
    fn apply_transposed(&self, c: &mut [f64]) {
        for (e, &(r, piv)) in self.head.iter().enumerate().rev() {
            let mut s = c[r];
            for &(i, w) in self.entries(e) {
                s -= w * c[i];
            }
            c[r] = s / piv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Factors the dense row-major k×k matrix `a`.
    fn factor_dense(k: usize, a: &[f64]) -> Result<Lu, LpError> {
        let mut col_start = vec![0];
        let mut entries = Vec::new();
        for c in 0..k {
            entries.extend(
                (0..k)
                    .filter(|&r| a[r * k + c] != 0.0)
                    .map(|r| (r, a[r * k + c])),
            );
            col_start.push(entries.len());
        }
        Lu::factor(&col_start, &entries)
    }

    /// Asserts `A·x = b` and `Aᵀ·y = c` for the factors' solves.
    fn assert_solves(k: usize, a: &[f64], lu: &Lu) {
        let b: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
        let (mut bb, mut x) = (b.clone(), vec![0.0; k]);
        lu.solve(&mut bb, &mut x);
        let (mut cc, mut y) = (b.clone(), vec![0.0; k]);
        lu.solve_transposed(&mut cc, &mut y);
        for i in 0..k {
            let ax: f64 = (0..k).map(|j| a[i * k + j] * x[j]).sum();
            let aty: f64 = (0..k).map(|j| a[j * k + i] * y[j]).sum();
            assert!((ax - b[i]).abs() < 1e-9, "(Ax)[{i}] = {ax}");
            assert!((aty - b[i]).abs() < 1e-9, "(Aᵀy)[{i}] = {aty}");
        }
    }

    #[test]
    fn markowitz_ordering_keeps_an_arrowhead_free_of_fill() {
        // Dense first row and column plus a diagonal: eliminating column 0
        // first would fill the whole matrix, while the Markowitz order
        // takes the diagonal first and creates no fill at all.
        let k = 8;
        let mut a = vec![0.0; k * k];
        for i in 0..k {
            a[i * k + i] = 4.0 + i as f64;
            a[i] = 1.0;
            a[i * k] = 1.0;
        }
        let lu = factor_dense(k, &a).expect("nonsingular");
        let nnz = a.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(lu.nnz(), nnz);
        assert_solves(k, &a, &lu);
    }

    #[test]
    fn threshold_pivoting_refuses_a_tiny_singleton_row() {
        // Row 0 is the only singleton (no column is one), but its entry
        // is far below the threshold relative to its column: the
        // factorization must start elsewhere and still solve accurately.
        let a = [1e-3, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0];
        let lu = factor_dense(3, &a).expect("nonsingular");
        assert_ne!(lu.prow[0], 0);
        assert_solves(3, &a, &lu);
    }

    #[test]
    fn dependent_columns_are_singular() {
        let a = [1.0, 2.0, 3.0, 2.0, 4.0, 1.0, 1.0, 2.0, 5.0];
        assert_eq!(factor_dense(3, &a).err(), Some(LpError::SingularBasis));
    }
}
