import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_lyapunov

from bilbt import (
    BilinearSystem,
    ConvergenceError,
    LyapunovOperator,
    MeanSquareInstabilityError,
    RiccatiInequalityProblem,
    check_lmi_feasibility,
    solve_type2_riccati,
)

from conftest import heat_rod, make_random_system, solve_fixed_point


def kron_oracle(M, N_list, RHS, side):
    """Independent dense oracle: vec(X) = (Kronecker sum)^-1 vec(RHS)."""
    n = M.shape[0]
    K = np.kron(np.eye(n), M) + np.kron(M, np.eye(n))
    for Ni in N_list:
        K += np.kron(Ni, Ni)
    if side == "observability":
        K = K.T
    return np.linalg.solve(K, RHS.reshape(-1, order="F")).reshape((n, n), order="F")


def test_scalar_reachability_closed_form(scalar_sys):
    # a p + p a + n1^2 p = -b^2  =>  p = 1 / 1.75 = 4/7
    RHS = -scalar_sys.B @ scalar_sys.B.T
    X, diag = LyapunovOperator(scalar_sys.A, scalar_sys.N).solve(RHS, "reachability")
    assert X[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-10)
    assert diag.method == "kronecker_direct"
    assert diag.residual_norm < 1e-10
    X, residual = solve_fixed_point(scalar_sys.A, scalar_sys.N, RHS, "reachability")
    assert X[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-10)
    assert residual < 1e-8


def test_linear_case_matches_scipy_and_oracle():
    sys = make_random_system(21, n=6, m=2)
    N0 = [np.zeros((6, 6))] * 2
    RHS = -sys.B @ sys.B.T
    X, _ = LyapunovOperator(sys.A, N0).solve(RHS, "reachability")
    scipy_X = solve_continuous_lyapunov(sys.A, RHS)
    oracle_X = kron_oracle(sys.A, N0, RHS, "reachability")
    assert np.allclose(X, scipy_X, atol=1e-10)
    assert np.allclose(X, oracle_X, atol=1e-10)


def test_zero_rhs_gives_zero():
    sys = make_random_system(22, n=4)
    X, diag = LyapunovOperator(sys.A, sys.N).solve(np.zeros((4, 4)), "reachability")
    assert np.allclose(X, 0.0, atol=1e-14)
    assert diag.residual_norm == 0.0


def test_methods_agree_on_random_systems():
    for seed in range(5):
        n = 3 + 3 * seed
        sys = make_random_system(100 + seed, n=n, m=2)
        RHS = -sys.B @ sys.B.T
        X_k, _ = LyapunovOperator(sys.A, sys.N).solve(RHS, "reachability")
        X_f, _ = solve_fixed_point(sys.A, sys.N, RHS, "reachability")
        assert np.linalg.norm(X_k - X_f) / np.linalg.norm(X_k) < 1e-7


def test_solutions_match_kron_oracle():
    for seed in range(4):
        sys = make_random_system(200 + seed, n=5, m=1, p=2)
        for side, RHS in (("reachability", -sys.B @ sys.B.T),
                          ("observability", -sys.C.T @ sys.C)):
            X, _ = solve_fixed_point(sys.A, sys.N, RHS, side)
            oracle = kron_oracle(sys.A, sys.N, RHS, side)
            assert np.linalg.norm(X - oracle) / np.linalg.norm(oracle) < 1e-8
            assert np.linalg.eigvalsh(X).min() > -1e-10


def test_observability_solution_definite_when_observable():
    for seed in range(3):
        sys = make_random_system(300 + seed, n=4, p=2)
        Q, diag = LyapunovOperator(sys.A, sys.N).solve(-sys.C.T @ sys.C, "observability")
        assert diag.residual_norm <= 1e-10
        assert np.linalg.eigvalsh(Q).min() > 0.0


def test_unstable_pair_detected():
    # msab = -2 + 4 > 0: the coupling sweep must diverge
    with pytest.raises((MeanSquareInstabilityError, ConvergenceError)):
        solve_fixed_point(np.array([[-1.0]]), (np.array([[2.0]]),), -np.ones((1, 1)),
                          "reachability")


def test_singular_operator_detected():
    # on the stability boundary the dense operator has an exact zero pivot:
    # here 2 * (-0.5) + 1^2 = 0 on the E_22 coordinate
    for side in ("reachability", "observability"):
        operator = LyapunovOperator(np.diag([-1.0, -0.5]), (np.diag([0.0, 1.0]),))
        with pytest.raises(MeanSquareInstabilityError, match="zero pivot"):
            operator.solve(-np.eye(2), side)


def test_asymmetric_rhs_rejected():
    operator = LyapunovOperator(-np.eye(2), (np.zeros((2, 2)),))
    for side in ("reachability", "observability"):
        with pytest.raises(ValueError, match="symmetric"):
            operator.solve(np.array([[0.0, 1.0], [0.0, 0.0]]), side)


def test_unknown_side_rejected():
    operator = LyapunovOperator(-np.eye(2), (np.zeros((2, 2)),))
    with pytest.raises(ValueError, match="unknown side 'controllability'"):
        operator.solve(-np.eye(2), "controllability")


# --- the control-bounded inequality ---------------------------------------


def riccati_scalar_roots(a, n1, b, k, delta):
    """Closed form for the scalar slacked equality
    x^2 b^2 - c0 x + delta = 0 with c0 = -(2(a + k^2/2) + n1^2)."""
    c0 = -(2.0 * (a + 0.5 * k * k) + n1 * n1)
    disc = np.sqrt(c0 * c0 - 4.0 * delta * b * b)
    return ((c0 - disc) / (2.0 * b * b), (c0 + disc) / (2.0 * b * b))


def test_scalar_riccati_maximal_root(scalar_sys):
    delta = 1e-9
    prob = RiccatiInequalityProblem(
        LyapunovOperator(scalar_sys.A + 0.5 * np.eye(1), scalar_sys.N),
        B=scalar_sys.B, delta=delta)
    X, diag, delta_used = solve_type2_riccati(prob)
    _, x_max = riccati_scalar_roots(-1.0, 0.5, 1.0, 1.0, delta_used)
    assert X[0, 0] == pytest.approx(x_max, rel=1e-9)
    assert X[0, 0] == pytest.approx(0.75, abs=1e-5)
    assert 1.0 / X[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-5)
    assert diag.definiteness_margin > 0.0


def test_riccati_linear_case_recovers_gramian():
    # k = 0, no coupling, delta -> 0: P = X^-1 equals the plain Gramian
    sys = make_random_system(400, n=5, m=2)
    N0 = tuple(np.zeros((5, 5)) for _ in range(2))
    delta = 1e-9 * np.linalg.norm(sys.B @ sys.B.T, 2)
    prob = RiccatiInequalityProblem(LyapunovOperator(sys.A, N0), B=sys.B, delta=delta)
    X, _, _ = solve_type2_riccati(prob)
    P = np.linalg.inv(X)
    P_lin = solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.T)
    assert np.linalg.norm(P - P_lin) / np.linalg.norm(P_lin) < 1e-6


def test_riccati_zero_input_feasible(scalar_sys):
    prob = RiccatiInequalityProblem(LyapunovOperator(scalar_sys.A + 0.5 * np.eye(1),
                                                     scalar_sys.N),
                                    B=np.zeros((1, 1)), delta=1e-6)
    X, diag, _ = solve_type2_riccati(prob)
    assert X[0, 0] > 0.0
    slack = 2.0 * (-0.5) * X[0, 0] + 0.25 * X[0, 0]
    assert slack <= 0.0


def test_riccati_unstable_shift_raises(scalar_sys):
    # k = 2: perturbed abscissa -1.75 + 4 > 0, so the Lyapunov solution that
    # starts the barrier is not positive definite; the solver raises that
    # and leaves the diagnosis (RiccatiInfeasibleError) to `type2_gramians`
    A_s = scalar_sys.A + 2.0 * np.eye(1)
    prob = RiccatiInequalityProblem(LyapunovOperator(A_s, scalar_sys.N),
                                    B=scalar_sys.B, delta=1e-6)
    with pytest.raises(ConvergenceError, match="not positive definite"):
        solve_type2_riccati(prob)


@pytest.mark.parametrize("delta", [0.0, -1e-6, float("nan")])
def test_riccati_problem_rejects_nonpositive_delta(scalar_sys, delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        RiccatiInequalityProblem(LyapunovOperator(scalar_sys.A, scalar_sys.N),
                                 B=scalar_sys.B, delta=delta)


def test_riccati_delta_continuation():
    # delta above the critical level: the solver must halve it and still certify
    sys = make_random_system(401, n=3)
    prob = RiccatiInequalityProblem(LyapunovOperator(sys.A, sys.N), B=sys.B, delta=10.0)
    X, diag, delta_used = solve_type2_riccati(prob)
    assert delta_used < 10.0
    assert np.linalg.eigvalsh(X).min() > 0.0
    rep = check_lmi_feasibility(
        BilinearSystem.from_matrices(sys.A, sys.B, sys.N, sys.C), 0.0,
        np.linalg.inv(X), X=X)
    assert rep.feasible


def test_lmi_certificate_from_solver(scalar_sys):
    from bilbt import type2_gramians
    pair = type2_gramians(scalar_sys, 1.0)
    rep = check_lmi_feasibility(scalar_sys, 1.0, pair.P)
    assert rep.feasible
    assert rep.largest_eigenvalue <= 1e-8


def test_lmi_shrunk_p_infeasible(scalar_sys):
    # scalar feasibility requires X = 1/P <= 0.75; halving P doubles X past it
    from bilbt import type2_gramians
    pair = type2_gramians(scalar_sys, 1.0)
    rep = check_lmi_feasibility(scalar_sys, 1.0, pair.P / 2.0)
    assert not rep.feasible
    assert rep.largest_eigenvalue > 1e-8


def test_lmi_block_diagonal_case():
    # B = 0, N = 0, k = 0: the block matrix is block-diagonal negative
    A = np.array([[-1.0, 0.2], [0.0, -2.0]])
    sys = BilinearSystem.from_matrices(A, np.zeros((2, 1)),
                                       [np.zeros((2, 2))], [[1.0, 0.0]])
    rep = check_lmi_feasibility(sys, 0.0, np.eye(2))
    assert rep.feasible


def test_minimal_trace_monotone_in_k_scalar_family():
    # closed-form family: the minimal-trace feasible X (smaller root of the
    # slacked equality) is nondecreasing in k; the solver tracks the maximal
    # root, which the closed form also pins down
    delta = 1e-8
    prev_min = -np.inf
    for k in (0.0, 0.4, 0.8, 1.0):
        x_min, x_max = riccati_scalar_roots(-1.0, 0.5, 1.0, k, delta)
        assert x_min >= prev_min
        prev_min = x_min
        prob = RiccatiInequalityProblem(
            LyapunovOperator(np.array([[-1.0 + 0.5 * k * k]]), (np.array([[0.5]]),)),
            B=np.array([[1.0]]), delta=delta)
        X, _, delta_used = solve_type2_riccati(prob)
        _, x_max_used = riccati_scalar_roots(-1.0, 0.5, 1.0, k, delta_used)
        assert X[0, 0] == pytest.approx(x_max_used, rel=1e-8)


def test_minimal_trace_monotone_in_k_diagonal_family():
    # two decoupled scalar channels: Loewner monotonicity reduces entrywise
    delta = 1e-8
    diag_a = (-1.0, -2.0)
    diag_n = (0.5, 0.3)
    prev = np.array([-np.inf, -np.inf])
    for k in (0.0, 0.5, 1.0):
        x_min = np.array([riccati_scalar_roots(a, n1, 1.0, k, delta)[0]
                          for a, n1 in zip(diag_a, diag_n)])
        assert np.all(x_min >= prev - 1e-15)
        prev = x_min


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3),
       st.sampled_from([0.0, 0.4, 0.8]))
def test_riccati_barrier_certifies_its_minimum(seed, n, m, fraction):
    # the barrier's X satisfies the LMI, beats its own start c Y and stops
    # within its gap bound of the minimal trace(P)
    from bilbt import stability_report
    from bilbt.gramians import default_delta
    from bilbt.matrix_equations import _scaled_lyapunov_feasible

    sys = make_random_system(seed, n=n, m=m)
    k = fraction * stability_report(sys).k_max_estimate
    A_s = sys.A + 0.5 * k * k * np.eye(n)
    operator = LyapunovOperator(A_s, sys.N)
    X, diag, delta_used = solve_type2_riccati(RiccatiInequalityProblem(
        operator, B=sys.B, delta=default_delta(sys)))
    Y, _ = operator.solve(-np.eye(n), "observability")
    X_start = _scaled_lyapunov_feasible(Y, sys.B @ sys.B.T, delta_used)
    trace_P = float(np.trace(np.linalg.inv(X)))
    assert diag.method == "barrier"
    assert diag.stop == "gap"
    assert check_lmi_feasibility(sys, k, np.linalg.inv(X), X=X).largest_eigenvalue <= 1e-8
    assert trace_P <= float(np.trace(np.linalg.inv(X_start)))
    assert diag.gap <= 1e-9 * trace_P


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3),
       st.sampled_from([0.0, 0.4, 0.8]), st.floats(0.0, 0.99))
def test_barrier_dikin_ellipsoid_lies_in_its_domain(seed, n, m, fraction, radius):
    # the "rounding" stop rests on this: the log terms of the barrier are
    # self-concordant in z, so a step of Hessian norm sqrt(dz^T H_b dz) < 1
    # from a barrier point stays in the domain; tried from the start c Y and
    # from the barrier's optimum, near the boundary, along random directions
    from bilbt import stability_report
    from bilbt.gramians import default_delta
    from bilbt.kronecker import half_unvec
    from bilbt.matrix_equations import (BARRIER_X_CAP, _LogDetBarrier,
                                        _scaled_lyapunov_feasible)

    sys = make_random_system(seed, n=n, m=m)
    k = fraction * stability_report(sys).k_max_estimate
    A_s = sys.A + 0.5 * k * k * np.eye(n)
    operator = LyapunovOperator(A_s, sys.N)
    X, _, delta = solve_type2_riccati(RiccatiInequalityProblem(
        operator, B=sys.B, delta=default_delta(sys)))
    Y, _ = operator.solve(-np.eye(n), "observability")
    X0 = _scaled_lyapunov_feasible(Y, sys.B @ sys.B.T, delta)
    barrier = _LogDetBarrier(A_s, sys.N, sys.B, delta, BARRIER_X_CAP * float(np.trace(X0)))
    rng = np.random.default_rng(seed)
    for start in (X0, X):
        pt = barrier.point(start)
        H_b = _symmetric(barrier.derivatives(pt)[3])
        for dz in rng.standard_normal((4, n * (n + 1) // 2)):
            dz *= radius / np.sqrt(dz @ H_b @ dz)
            assert barrier.point(pt.X + pt.S @ half_unvec(dz, barrier.basis) @ pt.S.T) \
                is not None


def test_riccati_heat_rod_keeps_the_barrier_optimum():
    # a 20-node rod heated through both ends (B = g e_end, N_i = -g e_end
    # e_end^T): trace(X^-1) keeps falling as X grows along the rod's interior
    # modes, until rounding hides the sign of the inequality; the solver must
    # still return a certified point near the optimum (trace P about 0.406)
    # rather than its start c Y (trace P about 83.7)
    from bilbt import stability_report, type2_gramians

    sys = heat_rod(20)
    k = 0.5 * stability_report(sys).k_max_estimate
    pair = type2_gramians(sys, k)
    assert pair.diagnostics[0].method == "barrier"
    # the last stage stops where the domain test rejects a step inside the
    # Dikin ellipsoid, which only rounding can do
    assert pair.diagnostics[0].stop == "rounding"
    assert np.trace(pair.P) <= 1.0
    assert check_lmi_feasibility(sys, k, pair.P).largest_eigenvalue <= 1e-8


def _symmetric(lower):
    """The symmetric matrix whose lower triangle is that of `lower`."""
    return np.tril(lower) + np.tril(lower, -1).T


@pytest.mark.parametrize("system", ["random-5-2", "heat-12"])
def test_barrier_step_radius_is_its_newton_matrix_norm(system, monkeypatch):
    # the "rounding" stop reads each step's radius, its norm in the Newton
    # matrix t H_f + H_b that gave it: at the t it centers for a centering
    # step, at the t it leaves for a predictor step; H_f is positive
    # definite, so the radius bounds the log terms' Hessian norm.  Late on a
    # rod dz^T H dz is 1e13 times smaller than |dz|^T |H| |dz|, which sets
    # the rounding of both forms, so that is the scale of the tolerance
    from bilbt import matrix_equations, stability_report, type2_gramians

    sys = heat_rod(12) if system == "heat-12" else make_random_system(3, n=5, m=2)
    steps, line_search = [], matrix_equations._line_search

    def recording(barrier, pt, dz, t, slope, radius):
        steps.append((barrier, pt, dz.copy(), t, radius))
        return line_search(barrier, pt, dz, t, slope, radius)

    monkeypatch.setattr(matrix_equations, "_line_search", recording)
    type2_gramians(sys, 0.5 * stability_report(sys).k_max_estimate)
    barrier, start = steps[0][:2]
    d = barrier.basis.rows.size
    t_newton, kinds = (barrier.q + 1) / start.f, set()
    for _, pt, dz, t, radius in steps:
        _, h_f, _, H_b = barrier.derivatives(pt)
        H_b, H_f = _symmetric(H_b), np.zeros(d * d)
        H_f[barrier.basis.eye_pos] = h_f
        H = t_newton * H_f.reshape(d, d) + H_b
        assert abs(radius ** 2 - dz @ H @ dz) <= 1e-12 * (abs(dz) @ abs(H) @ abs(dz))
        assert radius >= np.sqrt(dz @ H_b @ dz)
        kinds.add("predictor" if t > t_newton else "centering")
        t_newton = t
    assert kinds == {"centering", "predictor"}


def _barrier_problem(seed, n, m, couplings, fraction):
    """(barrier, start c Y, optimum X) of a random inequality with m inputs
    and the first `couplings` N_i of a mean-square stable system (fewer
    coupling terms keep the pair stable), at k = fraction k_max."""
    from bilbt.gramians import default_delta
    from bilbt.kronecker import ms_abscissa
    from bilbt.matrix_equations import (BARRIER_X_CAP, _LogDetBarrier,
                                        _scaled_lyapunov_feasible)
    from bilbt.system import _k_max

    sys = make_random_system(seed, n=n, m=max(m, couplings))
    B, N = sys.B[:, :m], sys.N[:couplings]
    k = fraction * _k_max(ms_abscissa(sys.A, N))
    A_s = sys.A + 0.5 * k * k * np.eye(n)
    operator = LyapunovOperator(A_s, N)
    X, _, delta = solve_type2_riccati(RiccatiInequalityProblem(
        operator, B=B, delta=default_delta(sys)))
    Y, _ = operator.solve(-np.eye(n), "observability")
    X0 = _scaled_lyapunov_feasible(Y, B @ B.T, delta)
    return _LogDetBarrier(A_s, N, B, delta, BARRIER_X_CAP * float(np.trace(X0))), X0, X


def _lower_solve(L, R):
    """L^-1 R by forward substitution, in R's precision."""
    X = R.copy()
    for i in range(len(L)):
        X[i] = (X[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def _log_terms_factor(barrier, pt):
    """The d x (q^2 + 1) factor C of the Hessian of the barrier's log terms at
    pt, H_b = C C^T, from its definition: row p is C_p = L^-1 J(S E_p S^T)
    L^-T (F = L L^T, J the linear part of F) flattened, then the gradient of
    -log(cap - trace(S Z S^T)) in z_p.  Formed in extended precision: in
    doubles this direct form loses up to 2e-11 relative at the optimum."""
    from bilbt.kronecker import half_unvec, half_vec

    wide = np.longdouble
    A_s, B, L, S = (np.asarray(a, dtype=wide) for a in (barrier.A_s, barrier.B, pt.LF, pt.S))
    N, (n, m) = [np.asarray(Ni, dtype=wide) for Ni in barrier.N_list], barrier.B.shape
    rows = []
    for e in np.eye(n * (n + 1) // 2):
        W = S @ half_unvec(e, barrier.basis).astype(wide) @ S.T
        top = A_s.T @ W + W @ A_s + sum((Ni.T @ W @ Ni for Ni in N), np.zeros((n, n), wide))
        J = np.block([[top, W @ B], [B.T @ W, np.zeros((m, m), wide)]])
        rows.append(_lower_solve(L, _lower_solve(L, J).T).ravel())
    cap = half_vec(S.T @ S, barrier.basis) / (barrier.cap - np.trace(S @ S.T))
    return np.column_stack([np.array(rows), cap])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from([0.0, 0.4, 0.8]))
def test_barrier_derivatives_match_their_definition(seed, n, m, couplings, fraction):
    # H_b and g_b, formed from one Gram matrix, against the factor C built
    # entry by entry from the barrier's definition, at the start c Y and at
    # the barrier's optimum, and with a cap on trace(X) close enough that its
    # term counts
    from bilbt.matrix_equations import _LogDetBarrier

    barrier, X0, X = _barrier_problem(seed, n, m, couplings, fraction)
    capped = _LogDetBarrier(barrier.A_s, barrier.N_list, barrier.B, barrier.delta,
                            2.0 * max(np.trace(X0), np.trace(X)))
    q = n + m
    for bar, start in ((barrier, X0), (barrier, X), (capped, X0), (capped, X)):
        pt = bar.point(start)
        _, _, g_b, H_b = bar.derivatives(pt)
        C = _log_terms_factor(bar, pt)
        H = (C @ C.T).astype(float)
        g = (C[:, :-1].reshape(-1, q, q).trace(axis1=1, axis2=2) + C[:, -1]).astype(float)
        # H_b is the lower triangle of what `derivatives` returns
        assert np.abs(np.tril(H_b) - np.tril(H)).max() <= 1e-12 * np.abs(H).max()
        assert np.abs(g_b - g).max() <= 1e-12 * np.abs(g).max()


# tracemalloc peak of one `derivatives` call on the 40-node rod below when
# H_b was C C^T, with C the d x (q(q+1)/2 + 1) factor (numpy 2.4)
CCT_DERIVATIVES_PEAK_BYTES = 1_835_559


def test_barrier_derivatives_memory_is_bounded():
    import tracemalloc

    from bilbt.matrix_equations import (BARRIER_X_CAP, _LogDetBarrier,
                                        _scaled_lyapunov_feasible)

    sys = heat_rod(40)
    Y, _ = LyapunovOperator(sys.A, sys.N).solve(-np.eye(40), "observability")
    X0 = _scaled_lyapunov_feasible(Y, sys.B @ sys.B.T, 1e-6)
    barrier = _LogDetBarrier(sys.A, sys.N, sys.B, 1e-6, BARRIER_X_CAP * float(np.trace(X0)))
    pt = barrier.point(X0)
    barrier.derivatives(pt)
    tracemalloc.start()
    try:
        barrier.derivatives(pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CCT_DERIVATIVES_PEAK_BYTES


def test_type2_solve_memory_is_bounded():
    # four d x d arrays of doubles, d = n(n+1)/2: the shifted operator, its
    # LU factors and the barrier's one Hessian are three of them
    import tracemalloc

    from bilbt import stability_report, type2_gramians

    sys = heat_rod(40)
    k = 0.5 * stability_report(sys).k_max_estimate
    tracemalloc.start()
    try:
        type2_gramians(sys, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * (40 * 41 // 2) ** 2


@pytest.mark.parametrize("n", [20, 40])
def test_barrier_holds_one_hessian_array(n):
    # the Newton matrix is formed and factored in H_b itself: of the arrays
    # a barrier holds (its work buffers, their views in `blocks`), one has
    # d^2 entries or more
    from bilbt.matrix_equations import _LogDetBarrier

    sys = heat_rod(n)
    barrier = _LogDetBarrier(sys.A, sys.N, sys.B, 1e-6, 1e6)
    found, arrays = {}, list(vars(barrier).values())
    while arrays:
        a = arrays.pop()
        if isinstance(a, (list, tuple)):
            arrays.extend(a)
        elif isinstance(a, np.ndarray):
            while a.base is not None:
                a = a.base
            found[id(a)] = a.size
    d = n * (n + 1) // 2
    assert sum(size >= d * d for size in found.values()) == 1


@pytest.mark.parametrize("chunk", [1, 300, 2000, 5000])
def test_barrier_hessian_has_the_same_bits_in_any_row_blocks(chunk, monkeypatch):
    from bilbt import matrix_equations
    from bilbt.matrix_equations import _LogDetBarrier

    # each entry of R comes from a product of the same n columns, whatever
    # the row blocks, so the one-block H_b is met bit for bit
    barrier, X0, X = _barrier_problem(7, 12, 2, 2, 0.4)
    pt = barrier.point(X)
    hessians = []
    for entries in (1 << 15, chunk):
        monkeypatch.setattr(matrix_equations, "BARRIER_CHUNK_ENTRIES", entries)
        blocked = _LogDetBarrier(barrier.A_s, barrier.N_list, barrier.B, barrier.delta,
                                 barrier.cap)
        hessians.append((len(blocked.blocks), np.tril(blocked.derivatives(pt)[3])))
    (one, H_b), (several, H_blocked) = hessians
    assert one == 1 < several
    assert np.array_equal(H_blocked, H_b)
