//! The conjugate-gradient solver for the transduction system
//! `(S + μ₁L + μ₂I) · ŷ = S · y` (Equation 3 of the paper).
//!
//! The system matrix is symmetric positive definite (S and I are diagonal
//! with non-negative entries, L is a graph Laplacian, μ₂ > 0), which is what
//! CG needs; it converges quickly even on poorly conditioned similarity
//! graphs.

use crate::sparse::SparseMatrix;

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
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

/// Solves `A·x = b` with the conjugate-gradient method.
pub fn conjugate_gradient(a: &SparseMatrix, b: &[f64], tol: f64, max_iter: usize) -> SolveResult {
    let n = a.dim();
    assert_eq!(b.len(), n, "dimension mismatch");
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
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
        let ap = a.matvec(&p);
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
    let residual = norm(&sub(b, &a.matvec(&x)));
    SolveResult {
        x,
        iterations,
        residual,
        converged: residual / b_norm <= tol,
    }
}

fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small SPD system with a known solution.
    fn spd_system() -> (SparseMatrix, Vec<f64>, Vec<f64>) {
        // A = [[4, 1, 0], [1, 3, 1], [0, 1, 5]], x* = [1, 2, 3]
        let mut a = SparseMatrix::zeros(3);
        a.add(0, 0, 4.0);
        a.add(0, 1, 1.0);
        a.add(1, 0, 1.0);
        a.add(1, 1, 3.0);
        a.add(1, 2, 1.0);
        a.add(2, 1, 1.0);
        a.add(2, 2, 5.0);
        let x_true = vec![1.0, 2.0, 3.0];
        let b = a.matvec(&x_true);
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
        let mut a = SparseMatrix::zeros(4);
        for i in 0..4 {
            a.add(i, i, 1.0);
        }
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let res = conjugate_gradient(&a, &b, 1e-12, 10);
        assert!(res.converged);
        for (x, y) in res.x.iter().zip(&b) {
            assert!((x - y).abs() < 1e-10);
        }
    }
}
