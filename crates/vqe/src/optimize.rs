//! Classical optimizers for the VQE outer loop.
//!
//! The paper optimizes with SciPy's SLSQP; the default here is L-BFGS with a
//! strong-Wolfe line search — also a smooth quasi-Newton method, so the
//! *relative* iteration counts across compression ratios (the paper's
//! convergence metric, Fig 9 bottom) are preserved. L-BFGS is also the one
//! resumable loop: [`lbfgs_resumable`] stops at an iteration boundary when
//! its budget expires and continues bit-identically from the saved state.
//! Nelder–Mead is provided for objectives without a gradient (the
//! density-matrix evaluator of the Fig 10 case studies).

use std::error::Error;
use std::fmt;

/// Error from an optimizer run.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The objective (or its gradient) returned NaN/±∞. Raised the first
    /// time a non-finite value appears so callers can restart from fresh
    /// parameters instead of wandering on a NaN plateau.
    NonFiniteObjective {
        /// Outer iteration at which the value appeared (0 = initial point).
        iteration: usize,
        /// The offending objective value.
        value: f64,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::NonFiniteObjective { iteration, value } => write!(
                f,
                "objective became non-finite ({value}) at iteration {iteration}"
            ),
        }
    }
}

impl Error for OptimizeError {}

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeOutcome {
    /// Best parameters found.
    pub params: Vec<f64>,
    /// Objective value at `params`.
    pub value: f64,
    /// Outer iterations used (the paper's convergence-speed metric).
    pub iterations: usize,
    /// Objective evaluations consumed.
    pub evaluations: usize,
    /// Objective value after each outer iteration.
    pub trace: Vec<f64>,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Convergence controls shared by all optimizers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeControls {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Stop when the objective improves less than this between iterations.
    pub value_tolerance: f64,
    /// Stop when the gradient norm falls below this (gradient methods).
    pub gradient_tolerance: f64,
}

impl Default for OptimizeControls {
    fn default() -> Self {
        OptimizeControls {
            max_iterations: 500,
            value_tolerance: 1e-9,
            gradient_tolerance: 1e-6,
        }
    }
}

/// L-BFGS loop state at an iteration boundary — everything the next
/// iteration reads: iterate, value, gradient, curvature memory, and the
/// bookkeeping counters. Restoring it resumes the run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct LbfgsState {
    /// The 1-based outer iteration the resumed loop executes next.
    pub next_iteration: usize,
    /// Current iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Gradient at `x`.
    pub g: Vec<f64>,
    /// Curvature memory: parameter steps.
    pub s_list: Vec<Vec<f64>>,
    /// Curvature memory: gradient differences, parallel to `s_list`.
    pub y_list: Vec<Vec<f64>>,
    /// Objective value after each completed outer iteration.
    pub trace: Vec<f64>,
    /// Objective evaluations consumed so far.
    pub evaluations: usize,
}

impl LbfgsState {
    /// Whether the state belongs to a problem with `n` parameters: the
    /// iterate, the gradient and every curvature pair have length `n`.
    pub(crate) fn fits(&self, n: usize) -> bool {
        self.s_list.len() == self.y_list.len()
            && [&self.x, &self.g]
                .into_iter()
                .chain(&self.s_list)
                .chain(&self.y_list)
                .all(|v| v.len() == n)
    }
}

/// Outcome of a budget-aware L-BFGS run.
#[derive(Debug, Clone, PartialEq)]
pub enum OptRun {
    /// The optimizer finished (converged or hit its iteration cap).
    Done(OptimizeOutcome),
    /// The budget expired first; resume later from the state.
    Interrupted(Box<LbfgsState>),
}

/// Fails with [`OptimizeError::NonFiniteObjective`] unless `value` and every
/// gradient component are finite.
fn check_finite(iteration: usize, value: f64, gradient: &[f64]) -> Result<(), OptimizeError> {
    if value.is_finite() && gradient.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(OptimizeError::NonFiniteObjective { iteration, value })
    }
}

/// Minimizes `f` (with gradient `fg`) by L-BFGS.
///
/// `fg` returns `(value, gradient)`; `evaluations` counts `fg` calls plus
/// the line search's value-only probes.
///
/// # Errors
///
/// [`OptimizeError::NonFiniteObjective`] the first time the objective or
/// gradient is NaN/±∞.
pub fn lbfgs(
    fg: impl FnMut(&[f64]) -> (f64, Vec<f64>),
    x0: &[f64],
    controls: OptimizeControls,
) -> Result<OptimizeOutcome, OptimizeError> {
    match lbfgs_resumable(fg, x0, controls, None, &par::Budget::unlimited())? {
        OptRun::Done(out) => Ok(out),
        OptRun::Interrupted(_) => unreachable!("unlimited budget cannot expire"),
    }
}

/// Budget-aware L-BFGS: polls `budget` once per outer iteration and returns
/// [`OptRun::Interrupted`] with the loop state when it expires. Passing the
/// state back as `resume` continues the run bit-identically — the resumed
/// trajectory matches an uninterrupted run exactly (same callable required).
///
/// # Errors
///
/// [`OptimizeError::NonFiniteObjective`] the first time the objective or
/// gradient is NaN/±∞.
pub fn lbfgs_resumable(
    mut fg: impl FnMut(&[f64]) -> (f64, Vec<f64>),
    x0: &[f64],
    controls: OptimizeControls,
    resume: Option<LbfgsState>,
    budget: &par::Budget,
) -> Result<OptRun, OptimizeError> {
    let n = x0.len();
    let memory = 8usize;
    let (start_iteration, mut x, mut f, mut g, mut s_list, mut y_list, mut trace, mut evaluations) =
        match resume {
            Some(st) => (
                st.next_iteration,
                st.x,
                st.f,
                st.g,
                st.s_list,
                st.y_list,
                st.trace,
                st.evaluations,
            ),
            None => {
                let x = x0.to_vec();
                let (f, g) = fg(&x);
                check_finite(0, f, &g)?;
                (1, x, f, g, Vec::new(), Vec::new(), vec![f], 1)
            }
        };

    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>();

    if n == 0 {
        return Ok(OptRun::Done(OptimizeOutcome {
            params: x,
            value: f,
            iterations: 0,
            evaluations,
            trace,
            converged: true,
        }));
    }

    for it in start_iteration..=controls.max_iterations {
        if !budget.tick() {
            obs::event!(
                "vqe.optimize.interrupted",
                optimizer = "lbfgs",
                iteration = it
            );
            return Ok(OptRun::Interrupted(Box::new(LbfgsState {
                next_iteration: it,
                x,
                f,
                g,
                s_list,
                y_list,
                trace,
                evaluations,
            })));
        }
        if norm(&g) < controls.gradient_tolerance {
            return Ok(OptRun::Done(OptimizeOutcome {
                params: x,
                value: f,
                iterations: it - 1,
                evaluations,
                trace,
                converged: true,
            }));
        }

        // Two-loop recursion for the search direction d = -H·g.
        let mut q = g.clone();
        let k = s_list.len();
        let mut alphas = vec![0.0; k];
        for i in (0..k).rev() {
            let rho = 1.0 / dot(&y_list[i], &s_list[i]);
            alphas[i] = rho * dot(&s_list[i], &q);
            for j in 0..n {
                q[j] -= alphas[i] * y_list[i][j];
            }
        }
        if k > 0 {
            let gamma = dot(&s_list[k - 1], &y_list[k - 1]) / dot(&y_list[k - 1], &y_list[k - 1]);
            for v in q.iter_mut() {
                *v *= gamma;
            }
        }
        for i in 0..k {
            let rho = 1.0 / dot(&y_list[i], &s_list[i]);
            let beta = rho * dot(&y_list[i], &q);
            for j in 0..n {
                q[j] += s_list[i][j] * (alphas[i] - beta);
            }
        }
        let d: Vec<f64> = q.iter().map(|v| -v).collect();

        // Strong-Wolfe line search (backtracking with curvature check).
        let dg0 = dot(&d, &g);
        if dg0 >= 0.0 {
            // Not a descent direction (numerical breakdown): reset memory.
            s_list.clear();
            y_list.clear();
            continue;
        }
        let c1 = 1e-4;
        let c2 = 0.9;
        let mut step = 1.0f64;
        let mut probes = 0usize;
        let mut accepted: Option<(f64, Vec<f64>, Vec<f64>)> = None;
        for _ in 0..30 {
            let xt: Vec<f64> = x.iter().zip(&d).map(|(xi, di)| xi + step * di).collect();
            let (ft, gt) = fg(&xt);
            evaluations += 1;
            probes += 1;
            check_finite(it, ft, &gt)?;
            if ft <= f + c1 * step * dg0 && dot(&d, &gt).abs() <= c2 * dg0.abs() {
                accepted = Some((ft, gt, xt));
                break;
            }
            if ft > f + c1 * step * dg0 {
                step *= 0.5;
            } else {
                step *= 2.1;
            }
        }
        obs::histogram_record("vqe.lbfgs.linesearch_probes", probes as f64);
        obs::histogram_record("vqe.lbfgs.step_size", step);
        let (ft, gt, xt) = match accepted {
            Some(t) => t,
            None => {
                // Fall back to the best backtracked point.
                let xt: Vec<f64> = x.iter().zip(&d).map(|(xi, di)| xi + step * di).collect();
                let (ft, gt) = fg(&xt);
                evaluations += 1;
                check_finite(it, ft, &gt)?;
                if ft >= f {
                    // No progress possible along d.
                    return Ok(OptRun::Done(OptimizeOutcome {
                        params: x,
                        value: f,
                        iterations: it,
                        evaluations,
                        trace,
                        converged: true,
                    }));
                }
                (ft, gt, xt)
            }
        };

        let s: Vec<f64> = xt.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = gt.iter().zip(&g).map(|(a, b)| a - b).collect();
        if dot(&s, &y) > 1e-12 {
            s_list.push(s);
            y_list.push(y);
            if s_list.len() > memory {
                s_list.remove(0);
                y_list.remove(0);
            }
        }

        let improvement = f - ft;
        x = xt;
        f = ft;
        g = gt;
        trace.push(f);
        if improvement.abs() < controls.value_tolerance {
            return Ok(OptRun::Done(OptimizeOutcome {
                params: x,
                value: f,
                iterations: it,
                evaluations,
                trace,
                converged: true,
            }));
        }
    }

    Ok(OptRun::Done(OptimizeOutcome {
        params: x,
        value: f,
        iterations: controls.max_iterations,
        evaluations,
        trace,
        converged: false,
    }))
}

/// Minimizes `f` with the Nelder–Mead simplex method.
///
/// # Errors
///
/// [`OptimizeError::NonFiniteObjective`] the first time the objective is
/// NaN/±∞.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    initial_step: f64,
    controls: OptimizeControls,
) -> Result<OptimizeOutcome, OptimizeError> {
    let n = x0.len();
    if n == 0 {
        let v = f(x0);
        check_finite(0, v, &[])?;
        return Ok(OptimizeOutcome {
            params: x0.to_vec(),
            value: v,
            iterations: 0,
            evaluations: 1,
            trace: vec![v],
            converged: true,
        });
    }
    let mut simplex: Vec<Vec<f64>> = vec![x0.to_vec()];
    for k in 0..n {
        let mut v = x0.to_vec();
        v[k] += initial_step;
        simplex.push(v);
    }
    let mut evaluations = 0usize;
    let mut values = Vec::with_capacity(simplex.len());
    for v in &simplex {
        evaluations += 1;
        let fv = f(v);
        check_finite(0, fv, &[])?;
        values.push(fv);
    }
    let mut trace = Vec::new();

    for it in 1..=controls.max_iterations {
        // Order ascending (values stay finite thanks to the eval guards).
        let mut idx: Vec<usize> = (0..simplex.len()).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        simplex = idx.iter().map(|&i| simplex[i].clone()).collect();
        values = idx.iter().map(|&i| values[i]).collect();
        trace.push(values[0]);

        if (values[n] - values[0]).abs() < controls.value_tolerance {
            return Ok(OptimizeOutcome {
                params: simplex[0].clone(),
                value: values[0],
                iterations: it,
                evaluations,
                trace,
                converged: true,
            });
        }

        let centroid: Vec<f64> = (0..n)
            .map(|j| simplex[..n].iter().map(|v| v[j]).sum::<f64>() / n as f64)
            .collect();
        let worst = simplex[n].clone();
        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&worst)
            .map(|(c, w)| c + (c - w))
            .collect();
        evaluations += 1;
        let fr = f(&reflect);
        check_finite(it, fr, &[])?;
        if fr < values[0] {
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&worst)
                .map(|(c, w)| c + 2.0 * (c - w))
                .collect();
            evaluations += 1;
            let fe = f(&expand);
            check_finite(it, fe, &[])?;
            if fe < fr {
                simplex[n] = expand;
                values[n] = fe;
            } else {
                simplex[n] = reflect;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = reflect;
            values[n] = fr;
        } else {
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&worst)
                .map(|(c, w)| c + 0.5 * (w - c))
                .collect();
            evaluations += 1;
            let fc = f(&contract);
            check_finite(it, fc, &[])?;
            if fc < values[n] {
                simplex[n] = contract;
                values[n] = fc;
            } else {
                for j in 1..=n {
                    let shrunk: Vec<f64> = simplex[0]
                        .iter()
                        .zip(&simplex[j])
                        .map(|(b, v)| b + 0.5 * (v - b))
                        .collect();
                    evaluations += 1;
                    let fs = f(&shrunk);
                    check_finite(it, fs, &[])?;
                    values[j] = fs;
                    simplex[j] = shrunk;
                }
            }
        }
    }

    // The simplex has n + 1 ≥ 2 vertices.
    let Some(best) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
    else {
        unreachable!("non-empty simplex")
    };
    Ok(OptimizeOutcome {
        params: simplex[best].clone(),
        value: values[best],
        iterations: controls.max_iterations,
        evaluations,
        trace,
        converged: false,
    })
}

/// Central finite-difference gradient of `f` at `x`, with the per-parameter
/// `±eps` probe pairs evaluated in parallel. Each component only reads `x`
/// and calls `f` on its own probe points, so the result is identical to the
/// serial loop at any thread count.
///
/// # Panics
///
/// Panics if `eps` is not positive.
pub fn fd_gradient(f: impl Fn(&[f64]) -> f64 + Sync, x: &[f64], eps: f64) -> Vec<f64> {
    assert!(eps > 0.0, "finite-difference step must be positive");
    par::map_indexed(x.len(), |i| {
        let mut xp = x.to_vec();
        let mut xm = x.to_vec();
        xp[i] += eps;
        xm[i] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    })
}

/// Exact gradient `∂E/∂θ` by the parameter-shift rule, evaluated in
/// closed form with one backward sweep.
///
/// Each IR entry applies `exp(-i·a/2·P)` with `a = rotation_angle(θ_p) =
/// -2·c·θ_p`, so `∂E/∂a = [E(a+π/2) − E(a−π/2)]/2` and the chain rule
/// contributes `−2c` per entry; shared parameters accumulate their entries'
/// contributions. On a statevector the shifted-energy difference has an
/// exact closed form — `∂E/∂a_k = Im⟨U_k†…U_E†·HΨ | P_k·φ_{k-1}⟩` — so
/// instead of rebuilding `2·|entries|` full circuits (quadratic in the
/// ansatz length) both bra and ket peel backward through the entries once.
/// Unlike the adjoint recurrence, entry `k` is unapplied from *both* states
/// before its bracket is taken: the shift rule differentiates through
/// `U_k`, so the bracket straddles it. Numerically identical to the
/// literal shifted-circuit evaluation (pinned by tests).
///
/// This is the per-entry, unfused reference oracle for the fused adjoint
/// walk in [`crate::state::energy_and_gradient`]: it prepares the state and
/// peels it one [`apply_pauli_evolution`](sim::Statevector::apply_pauli_evolution)
/// sweep per entry and applies `H` one sweep per term
/// ([`apply_per_term`](pauli::WeightedPauliSum::apply_per_term)), sharing
/// no kernel with the fused path.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn parameter_shift_gradient(
    hamiltonian: &pauli::WeightedPauliSum,
    ir: &ansatz::PauliIr,
    params: &[f64],
) -> Vec<f64> {
    assert_eq!(
        params.len(),
        ir.num_parameters(),
        "parameter count mismatch"
    );
    assert_eq!(
        hamiltonian.num_qubits(),
        ir.num_qubits(),
        "register mismatch"
    );
    let mut phi = sim::Statevector::basis_state(ir.num_qubits(), ir.initial_state());
    for e in ir.entries() {
        phi.apply_pauli_evolution(&e.string, e.rotation_angle(params[e.param]));
    }
    let dim = phi.amplitudes().len();
    let mut h_psi = vec![numeric::Complex64::ZERO; dim];
    hamiltonian.apply_per_term(phi.amplitudes(), &mut h_psi);
    let mut lambda = sim::Statevector::from_amplitudes(h_psi);
    let mut scratch = vec![numeric::Complex64::ZERO; dim];

    let mut grad = vec![0.0; ir.num_parameters()];
    for e_k in ir.entries().iter().rev() {
        let angle = e_k.rotation_angle(params[e_k.param]);
        phi.apply_pauli_evolution(&e_k.string, -angle);
        lambda.apply_pauli_evolution(&e_k.string, -angle);
        apply_pauli(&e_k.string, phi.amplitudes(), &mut scratch);
        let d: f64 = -scratch
            .iter()
            .zip(lambda.amplitudes())
            .map(|(s, l)| (s.conj() * *l).im)
            .sum::<f64>();
        grad[e_k.param] += -2.0 * e_k.coefficient * d;
    }
    grad
}

/// Applies a bare Pauli string: `out = P·state`.
fn apply_pauli(
    p: &pauli::PauliString,
    state: &[numeric::Complex64],
    out: &mut [numeric::Complex64],
) {
    let x = p.x_mask();
    let z = p.z_mask();
    let base = pauli::Phase::from_power_of_i((x & z).count_ones()).to_complex();
    for b in 0..state.len() as u64 {
        let sign = if (b & z).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        out[(b ^ x) as usize] = state[b as usize] * (base * sign);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic(x: &[f64]) -> f64 {
        // Minimum 1.5 at (1, -2, 3).
        (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 2.0).powi(2) + 0.5 * (x[2] - 3.0).powi(2) + 1.5
    }

    fn quadratic_grad(x: &[f64]) -> (f64, Vec<f64>) {
        (
            quadratic(x),
            vec![2.0 * (x[0] - 1.0), 4.0 * (x[1] + 2.0), 1.0 * (x[2] - 3.0)],
        )
    }

    #[test]
    fn lbfgs_minimizes_quadratic() {
        let out = lbfgs(
            quadratic_grad,
            &[0.0, 0.0, 0.0],
            OptimizeControls::default(),
        )
        .unwrap();
        assert!(out.converged);
        assert!((out.value - 1.5).abs() < 1e-8, "value {}", out.value);
        assert!((out.params[0] - 1.0).abs() < 1e-5);
        assert!((out.params[1] + 2.0).abs() < 1e-5);
        assert!(out.iterations <= 20);
    }

    #[test]
    fn lbfgs_handles_rosenbrock() {
        let fg = |x: &[f64]| {
            let f = (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
            let g = vec![
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] * x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ];
            (f, g)
        };
        let out = lbfgs(fg, &[-1.2, 1.0], OptimizeControls::default()).unwrap();
        assert!(out.value < 1e-8, "rosenbrock value {}", out.value);
    }

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let controls = OptimizeControls {
            max_iterations: 2000,
            ..Default::default()
        };
        let out = nelder_mead(quadratic, &[0.0, 0.0, 0.0], 0.5, controls).unwrap();
        assert!((out.value - 1.5).abs() < 1e-6, "value {}", out.value);
    }

    #[test]
    fn traces_are_monotone_nonincreasing_for_lbfgs() {
        let out = lbfgs(
            quadratic_grad,
            &[4.0, 4.0, 4.0],
            OptimizeControls::default(),
        )
        .unwrap();
        for w in out.trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn empty_parameter_vector_is_handled() {
        let out = lbfgs(|_| (2.5, vec![]), &[], OptimizeControls::default()).unwrap();
        assert_eq!(out.value, 2.5);
        assert!(out.converged);
    }

    #[test]
    fn fd_gradient_matches_analytic_on_quadratic() {
        let x = [0.4, -1.1, 2.2];
        let (_, analytic) = quadratic_grad(&x);
        for t in [1, 2, 4] {
            let fd = par::with_threads(t, || fd_gradient(quadratic, &x, 1e-6));
            for (a, b) in analytic.iter().zip(&fd) {
                assert!((a - b).abs() < 1e-5, "threads {t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parameter_shift_matches_adjoint_gradient() {
        use ansatz::{IrEntry, PauliIr};
        use pauli::WeightedPauliSum;

        let mut h = WeightedPauliSum::new(2);
        h.push(-0.5, "ZI".parse().unwrap());
        h.push(0.3, "XX".parse().unwrap());
        h.push(0.2, "ZZ".parse().unwrap());
        let mut ir = PauliIr::new(2, 0b01);
        ir.push(IrEntry {
            string: "XY".parse().unwrap(),
            param: 0,
            coefficient: 0.5,
        });
        ir.push(IrEntry {
            string: "YX".parse().unwrap(),
            param: 0,
            coefficient: -0.5,
        });
        ir.push(IrEntry {
            string: "ZY".parse().unwrap(),
            param: 1,
            coefficient: 0.25,
        });
        let theta = [0.37, -0.81];
        let (_, adjoint) = crate::state::energy_and_gradient(&h, &ir, &theta);
        for t in [1, 2, 4] {
            let shift = par::with_threads(t, || parameter_shift_gradient(&h, &ir, &theta));
            for (a, b) in adjoint.iter().zip(&shift) {
                assert!(
                    (a - b).abs() < 1e-10,
                    "threads {t}: adjoint {a} vs shift {b}"
                );
            }
        }
    }

    /// `E(θ)` with entry `entry_idx`'s rotation angle shifted by `shift` —
    /// the literal (quadratic-cost) evaluation the closed form replaces.
    fn energy_with_entry_shift(
        hamiltonian: &pauli::WeightedPauliSum,
        ir: &ansatz::PauliIr,
        params: &[f64],
        entry_idx: usize,
        shift: f64,
    ) -> f64 {
        let mut sv = sim::Statevector::basis_state(ir.num_qubits(), ir.initial_state());
        for (k, e) in ir.entries().iter().enumerate() {
            let mut angle = e.rotation_angle(params[e.param]);
            if k == entry_idx {
                angle += shift;
            }
            sv.apply_pauli_evolution(&e.string, angle);
        }
        sv.expectation(hamiltonian)
    }

    #[test]
    fn parameter_shift_matches_literal_shifted_circuits() {
        use ansatz::uccsd::UccsdAnsatz;
        use pauli::WeightedPauliSum;

        let ir = UccsdAnsatz::new(2, 2).into_ir();
        let mut h = WeightedPauliSum::new(4);
        h.push(0.4, "ZIIZ".parse().unwrap());
        h.push(-0.7, "XXII".parse().unwrap());
        h.push(0.1, "YZZY".parse().unwrap());
        let theta = [0.21, -0.4, 0.63];

        let closed = parameter_shift_gradient(&h, &ir, &theta);
        let mut literal = vec![0.0; ir.num_parameters()];
        for (k, e) in ir.entries().iter().enumerate() {
            let ep = energy_with_entry_shift(&h, &ir, &theta, k, std::f64::consts::FRAC_PI_2);
            let em = energy_with_entry_shift(&h, &ir, &theta, k, -std::f64::consts::FRAC_PI_2);
            literal[e.param] += -2.0 * e.coefficient * (ep - em) / 2.0;
        }
        for (c, l) in closed.iter().zip(&literal) {
            assert!((c - l).abs() < 1e-10, "closed {c} vs literal {l}");
        }
    }

    #[test]
    fn nan_objective_is_a_typed_error() {
        let err = lbfgs(
            |x| (f64::NAN, vec![0.0; x.len()]),
            &[1.0, 2.0],
            OptimizeControls::default(),
        )
        .unwrap_err();
        assert!(matches!(err, OptimizeError::NonFiniteObjective { .. }));

        let err =
            nelder_mead(|_| f64::INFINITY, &[1.0], 0.5, OptimizeControls::default()).unwrap_err();
        assert!(matches!(
            err,
            OptimizeError::NonFiniteObjective { iteration: 0, .. }
        ));
    }

    #[test]
    fn lbfgs_resume_is_bit_identical() {
        let x0 = [0.0, 0.0, 0.0];
        let controls = OptimizeControls::default();
        let full = lbfgs(quadratic_grad, &x0, controls).unwrap();
        for ticks in [1, 2, 3] {
            let mut state = None;
            let segmented = loop {
                let budget = par::Budget::max_ticks(ticks);
                match lbfgs_resumable(quadratic_grad, &x0, controls, state.take(), &budget).unwrap()
                {
                    OptRun::Done(out) => break out,
                    OptRun::Interrupted(st) => state = Some(*st),
                }
            };
            assert_eq!(full, segmented, "segment length {ticks}");
        }
    }

    #[test]
    fn interrupted_optimizer_reports_loop_state() {
        let budget = par::Budget::max_ticks(2);
        let run = lbfgs_resumable(
            quadratic_grad,
            &[0.0, 0.0, 0.0],
            OptimizeControls::default(),
            None,
            &budget,
        )
        .unwrap();
        match run {
            OptRun::Interrupted(st) => {
                assert_eq!(st.next_iteration, 3);
                assert!(st.evaluations >= 3);
                assert_eq!(st.trace.len(), 3);
            }
            OptRun::Done(_) => panic!("two ticks cannot finish the quadratic"),
        }
    }
}
