//! The transduction system `(S + μ₁L + μ₂I) · ŷ = S · y` (Equation 3 of
//! the paper) and the conjugate-gradient solver for it.
//!
//! [`SystemMatrix`] stores `A = S + μ₁(D − M) + μ₂I` in compressed sparse row
//! (CSR) form: row `i` occupies `offsets[i]..offsets[i + 1]` of the parallel
//! `cols` (`u32`) and `vals` (`f64`) arrays.  It is assembled straight from
//! the upper-triangle similarity rows of
//! [`build_similarity_rows`](crate::transfer::build_similarity_rows), in one
//! counting pass and one fill pass.
//!
//! **Entry order.**  Row `i` holds its diagonal `s_ii + μ₁·dᵢ + μ₂` first,
//! then `−μ₁·s` for every neighbour in ascending column order.  Values that
//! are exactly `0.0` are not stored: a zero similarity (which then adds
//! nothing to the degree either), a zero diagonal and a zero `−μ₁·s`.  The
//! degree `dᵢ` is the left-to-right sum of the row's non-zero similarities in
//! ascending column order.  The mat-vec product walks each row in stored
//! order, so every degree, every product and every transferred preference is
//! fixed by these rules down to the last bit.
//!
//! The matrix is symmetric positive definite (S and I are diagonal with
//! non-negative entries, L is a graph Laplacian, μ₂ > 0), which is what CG
//! needs; it converges quickly even on poorly conditioned similarity graphs.

/// `A = S + μ₁L + μ₂I` in CSR form; see the module docs for the layout.
#[derive(Debug)]
pub(crate) struct SystemMatrix {
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SystemMatrix {
    /// Assembles `A` for the similarity graph whose upper triangle is
    /// `rows` (row `i` lists `(j, s)` with `j > i`, ascending).  The first
    /// `num_labeled` nodes are labelled, so `s_ii` is 1 for them and 0 for
    /// the rest.
    ///
    /// # Panics
    /// Panics when a column does not fit in `u32` or is out of range.
    pub(crate) fn assemble(
        rows: &[Vec<(usize, f64)>],
        num_labeled: usize,
        mu1: f64,
        mu2: f64,
    ) -> SystemMatrix {
        let n = rows.len();
        // Counting pass.  Rows are visited in order and each pair feeds both
        // of its endpoints, so node `i` sees its lower-triangle neighbours
        // (ascending) before its own row: ascending column order overall.
        // `Iterator::sum` is a left fold with `+` from the empty sum, so the
        // running `degree` equals summing the row's values in that order.
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        let mut degree = vec![empty_sum; n];
        let mut off_diagonal = vec![0usize; n];
        for (i, row) in rows.iter().enumerate() {
            for &(j, s) in row {
                if s == 0.0 {
                    continue;
                }
                degree[i] += s;
                degree[j] += s;
                if -mu1 * s != 0.0 {
                    off_diagonal[i] += 1;
                    off_diagonal[j] += 1;
                }
            }
        }

        // Row extents: the diagonal unless it is zero, then the neighbours.
        // `next` becomes each row's fill cursor, just past its diagonal.
        let diagonal = |i: usize| {
            let s_ii = if i < num_labeled { 1.0 } else { 0.0 };
            s_ii + mu1 * degree[i] + mu2
        };
        let mut offsets = vec![0usize; n + 1];
        let mut next = off_diagonal;
        for i in 0..n {
            let start = offsets[i] + usize::from(diagonal(i) != 0.0);
            offsets[i + 1] = start + next[i];
            next[i] = start;
        }
        let mut cols = vec![0u32; offsets[n]];
        let mut vals = vec![0.0f64; offsets[n]];
        let col = |j: usize| u32::try_from(j).expect("system dimension exceeds u32");
        for i in (0..n).filter(|&i| next[i] > offsets[i]) {
            cols[offsets[i]] = col(i);
            vals[offsets[i]] = diagonal(i);
        }

        // Fill pass, in the same visiting order as the counting pass.
        for (i, row) in rows.iter().enumerate() {
            for &(j, s) in row {
                let v = -mu1 * s;
                if s == 0.0 || v == 0.0 {
                    continue;
                }
                for (at, other) in [(i, j), (j, i)] {
                    cols[next[at]] = col(other);
                    vals[next[at]] = v;
                    next[at] += 1;
                }
            }
        }
        SystemMatrix {
            offsets,
            cols,
            vals,
        }
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Writes `A · x` into `y`, summing each row in stored order.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
            let mut acc = 0.0;
            for (v, &j) in self.vals[lo..hi].iter().zip(&self.cols[lo..hi]) {
                acc += v * x[j as usize];
            }
            *yi = acc;
        }
    }
}

/// Outcome of a solve.
#[derive(Debug)]
pub(crate) struct SolveResult {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A·x‖₂`.
    pub residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Solves `A·x = b` with the conjugate-gradient method.  One `A·p` buffer
/// serves every iteration and the final residual.
pub(crate) fn conjugate_gradient(
    a: &SystemMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> SolveResult {
    let n = a.dim();
    assert_eq!(b.len(), n, "dimension mismatch");
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rs_old = dot(&r, &r);
    let b_norm = norm(b).max(1e-30);
    let mut iterations = 0;
    if rs_old.sqrt() / b_norm <= tol {
        return SolveResult {
            x,
            iterations,
            residual: rs_old.sqrt(),
            converged: true,
        };
    }
    for _ in 0..max_iter {
        iterations += 1;
        a.matvec_into(&p, &mut ap);
        let denom = dot(&p, &ap);
        if denom.abs() < 1e-300 {
            break;
        }
        let alpha = rs_old / denom;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = dot(&r, &r);
        if rs_new.sqrt() / b_norm <= tol {
            return SolveResult {
                x,
                iterations,
                residual: rs_new.sqrt(),
                converged: true,
            };
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    // The true residual `b − A·x`, computed in the `A·p` buffer.
    a.matvec_into(&x, &mut ap);
    for (ri, bi) in ap.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let residual = norm(&ap);
    SolveResult {
        x,
        iterations,
        residual,
        converged: residual / b_norm <= tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small SPD system with a known solution: the path graph 0 – 1 – 2
    /// with unit similarities, every node labelled, μ₁ = μ₂ = 1, so
    /// `A = [[3, −1, 0], [−1, 4, −1], [0, −1, 3]]` and `x* = [1, 2, 3]`.
    fn spd_system() -> (SystemMatrix, Vec<f64>, Vec<f64>) {
        let rows = vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![]];
        let a = SystemMatrix::assemble(&rows, 3, 1.0, 1.0);
        let x_true = vec![1.0, 2.0, 3.0];
        let mut b = vec![0.0; 3];
        a.matvec_into(&x_true, &mut b);
        assert_eq!(b, vec![1.0, 4.0, 7.0]);
        (a, b, x_true)
    }

    #[test]
    fn conjugate_gradient_solves_spd_system() {
        let (a, b, x_true) = spd_system();
        let res = conjugate_gradient(&a, &b, 1e-10, 100);
        assert!(res.converged);
        for (xi, ti) in res.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
        assert!(
            res.iterations <= 3 + 1,
            "CG converges in at most n iterations"
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let (a, _, _) = spd_system();
        let res = conjugate_gradient(&a, &[0.0, 0.0, 0.0], 1e-12, 10);
        assert!(res.converged);
        assert!(res.x.iter().all(|v| v.abs() < 1e-12));
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn identity_system_is_trivial() {
        // No similarities, every node labelled, μ₂ = 0: A = I.
        let a = SystemMatrix::assemble(&[vec![], vec![], vec![], vec![]], 4, 1.0, 0.0);
        assert_eq!(a.vals, vec![1.0; 4]);
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let res = conjugate_gradient(&a, &b, 1e-12, 10);
        assert!(res.converged);
        for (x, y) in res.x.iter().zip(&b) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn assembly_matches_a_dense_reference_exactly() {
        let rg = crate::transfer::tests::build_region_graph();
        let edges: Vec<&l2r_region_graph::RegionEdge> = rg.edges().iter().collect();
        let descriptors = crate::re_sim::build_descriptors(&rg, &edges);
        let n = descriptors.len();
        assert!(n > 10, "need a non-trivial graph");
        let num_labeled = n / 2;
        for amr in [0.0, 0.5, 0.7, 1.1] {
            let rows = crate::transfer::build_similarity_rows(&descriptors, amr);
            // Dense M from the same rows, zero similarities included, and
            // the degrees summed over each dense row in column order.
            let mut m = vec![vec![0.0f64; n]; n];
            for (i, row) in rows.iter().enumerate() {
                for &(j, s) in row {
                    m[i][j] = s;
                    m[j][i] = s;
                }
            }
            let degree: Vec<f64> = m.iter().map(|row| row.iter().sum()).collect();
            // μ₁ = 0 stores no off-diagonal; adding μ₂ = 0 leaves the
            // unlabelled diagonals at zero, so they are skipped too.
            for (mu1, mu2) in [(0.0, 0.01), (1.0, 0.01), (0.0, 0.0), (1.0, 0.0)] {
                let a = SystemMatrix::assemble(&rows, num_labeled, mu1, mu2);
                assert_eq!(a.dim(), n);
                for i in 0..n {
                    // Dense A = S + μ₁(D − M) + μ₂I, row i in stored order:
                    // the diagonal, then the other columns ascending.
                    let s_ii = if i < num_labeled { 1.0 } else { 0.0 };
                    let expected: Vec<(u32, f64)> =
                        std::iter::once((i, s_ii + mu1 * degree[i] + mu2))
                            .chain((0..n).filter(|&j| j != i).map(|j| (j, -mu1 * m[i][j])))
                            .filter(|&(_, v)| v != 0.0)
                            .map(|(j, v)| (j as u32, v))
                            .collect();
                    let range = a.offsets[i]..a.offsets[i + 1];
                    let stored: Vec<(u32, f64)> = a.cols[range.clone()]
                        .iter()
                        .copied()
                        .zip(a.vals[range].iter().copied())
                        .collect();
                    assert_eq!(
                        stored.len(),
                        expected.len(),
                        "row {i} (amr {amr}, mu1 {mu1}, mu2 {mu2})"
                    );
                    for ((sj, sv), (ej, ev)) in stored.iter().zip(&expected) {
                        assert_eq!(sj, ej, "row {i}: column order");
                        assert_eq!(
                            sv.to_bits(),
                            ev.to_bits(),
                            "A[{i}][{sj}] (amr {amr}, mu1 {mu1}, mu2 {mu2})"
                        );
                    }
                }
            }
        }
    }
}
