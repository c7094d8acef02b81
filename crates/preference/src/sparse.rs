//! A minimal sparse symmetric matrix used by the transduction solver.
//!
//! The systems solved during preference transfer are small (one row per
//! region edge) but sparse; a row-major adjacency-list representation with a
//! mat-vec product is all the conjugate-gradient solver needs.

/// A square sparse matrix stored as per-row `(column, value)` lists.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    n: usize,
    rows: Vec<Vec<(usize, f64)>>,
}

impl SparseMatrix {
    /// An `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SparseMatrix {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    /// Adds `value` to entry `(i, j)`.
    ///
    /// # Panics
    /// Panics when the indices are out of range (internal misuse).
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        if value == 0.0 {
            return;
        }
        if let Some(entry) = self.rows[i].iter_mut().find(|(c, _)| *c == j) {
            entry.1 += value;
        } else {
            self.rows[i].push((j, value));
        }
    }

    /// Returns entry `(i, j)` (0.0 when absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.rows
            .get(i)
            .and_then(|r| r.iter().find(|(c, _)| *c == j))
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// Sum of row `i`.
    pub fn row_sum(&self, i: usize) -> f64 {
        self.rows[i].iter().map(|(_, v)| *v).sum()
    }

    /// The diagonal entry of row `i`.
    pub fn diagonal(&self, i: usize) -> f64 {
        self.get(i, i)
    }

    /// Dense mat-vec product `A · x`.
    ///
    /// # Panics
    /// Panics when `x.len() != dim()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y = vec![0.0; self.n];
        for (i, row) in self.rows.iter().enumerate() {
            let mut acc = 0.0;
            for (j, v) in row {
                acc += v * x[*j];
            }
            y[i] = acc;
        }
        y
    }

    /// Iterates over the entries of row `i`.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.rows[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_and_accumulate() {
        let mut m = SparseMatrix::zeros(3);
        assert_eq!(m.dim(), 3);
        m.add(0, 1, 2.0);
        m.add(0, 1, 1.0);
        m.add(2, 2, 5.0);
        m.add(1, 0, 0.0); // zero insertions are ignored
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.diagonal(2), 5.0);
        assert_eq!(m.row_sum(0), 3.0);
    }

    #[test]
    fn matvec_matches_dense_computation() {
        // [[2, 1, 0], [1, 3, 0], [0, 0, 1]] * [1, 2, 3] = [4, 7, 3]
        let mut m = SparseMatrix::zeros(3);
        m.add(0, 0, 2.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 3.0);
        m.add(2, 2, 1.0);
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0, 7.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_wrong_dimension() {
        let m = SparseMatrix::zeros(2);
        let _ = m.matvec(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn add_rejects_out_of_range() {
        let mut m = SparseMatrix::zeros(2);
        m.add(2, 0, 1.0);
    }
}
