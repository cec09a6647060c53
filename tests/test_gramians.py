import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from bilbt import (
    BilinearSystem,
    MeanSquareInstabilityError,
    RiccatiInfeasibleError,
    check_lmi_feasibility,
    mixed_pair_Q1_P2,
    transform_gramians,
    type1_gramians,
    type2_gramians,
)

from conftest import make_random_system, reduce_corpus, reduce_results, report_differences


def test_type1_scalar_closed_form(scalar_sys):
    pair = type1_gramians(scalar_sys)
    assert pair.P[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-10)
    assert pair.Q[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-10)
    assert pair.kind == "type1"
    assert pair.k == 0.0
    assert pair.minimal


def test_type1_linear_matches_lyapunov_oracle():
    sys = make_random_system(50, n=5, m=2, p=2)
    lin = BilinearSystem.from_matrices(sys.A, sys.B,
                                       [np.zeros((5, 5))] * 2, sys.C)
    pair = type1_gramians(lin)
    P_lin = solve_continuous_lyapunov(lin.A, -lin.B @ lin.B.T)
    Q_lin = solve_continuous_lyapunov(lin.A.T, -lin.C.T @ lin.C)
    assert np.allclose(pair.P, P_lin, atol=1e-10)
    assert np.allclose(pair.Q, Q_lin, atol=1e-10)


def test_type1_zero_b_or_c():
    sys = make_random_system(51, n=3)
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((3, 1)), sys.N, sys.C)
    pair = type1_gramians(no_b)
    assert np.allclose(pair.P, 0.0, atol=1e-14)
    assert not pair.minimal
    no_c = BilinearSystem.from_matrices(sys.A, sys.B, sys.N, np.zeros((1, 3)))
    assert np.allclose(type1_gramians(no_c).Q, 0.0, atol=1e-14)


def test_type1_factors_one_operator(monkeypatch):
    # the stability certificate, P1 and Q1 all come from one LU factorization
    from bilbt import matrix_equations

    factored = []
    dgetrf = matrix_equations.dgetrf
    monkeypatch.setattr(matrix_equations, "dgetrf",
                        lambda K: factored.append(K.shape) or dgetrf(K))
    pair = type1_gramians(make_random_system(53, n=5, m=2, p=2))
    assert factored == [(15, 15)]
    assert max(diag.residual_norm for diag in pair.diagnostics) <= 1e-12


def test_type2_scalar_closed_forms(scalar_sys):
    pair = type2_gramians(scalar_sys, 1.0)
    assert pair.P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-5)
    # 2(-0.5) q + 0.25 q = -1  =>  q = 4/3
    assert pair.Q[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)
    assert pair.kind == "type2_bilinear"
    assert pair.k == 1.0
    assert pair.lmi_margin <= 1e-8
    assert pair.delta is not None


def test_type2_linear_limit():
    sys = make_random_system(52, n=4, m=2)
    lin = BilinearSystem.from_matrices(sys.A, sys.B, [np.zeros((4, 4))] * 2, sys.C)
    pair = type2_gramians(lin, 0.0, delta=1e-9 * np.linalg.norm(lin.B @ lin.B.T, 2))
    P_lin = solve_continuous_lyapunov(lin.A, -lin.B @ lin.B.T)
    Q_lin = solve_continuous_lyapunov(lin.A.T, -lin.C.T @ lin.C)
    assert np.linalg.norm(pair.P - P_lin) / np.linalg.norm(P_lin) < 1e-6
    assert np.allclose(pair.Q, Q_lin, atol=1e-9)


def test_type2_infeasible_k_reports_k_max(scalar_sys):
    with pytest.raises(RiccatiInfeasibleError) as exc_info:
        type2_gramians(scalar_sys, 2.0)
    assert exc_info.value.k_max == pytest.approx(np.sqrt(1.75), abs=1e-4)


def test_type2_infeasible_message_and_fields(scalar_sys):
    # the same message and fields with and without input, and k < 0 rejected
    from bilbt import stability_report

    no_b = BilinearSystem.from_matrices(scalar_sys.A, np.zeros((1, 1)), scalar_sys.N,
                                        scalar_sys.C)
    for sys in (scalar_sys, no_b):
        with pytest.raises(RiccatiInfeasibleError) as exc_info:
            type2_gramians(sys, 2.0)
        assert str(exc_info.value) == (
            "control bound k=2.0 is infeasible: perturbed mean-square abscissa "
            "2.250e+00 >= 0 (largest feasible bound ~ 1.32288)")
        assert exc_info.value.abscissa == pytest.approx(2.25, abs=1e-12)
        assert exc_info.value.k_max == stability_report(sys).k_max_estimate
    with pytest.raises(ValueError, match="nonnegative"):
        type2_gramians(scalar_sys, -1.0)


def test_one_mean_square_eigensolve_per_call(monkeypatch):
    from bilbt import kronecker, stability_report

    calls = []
    original = kronecker.ms_abscissa

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kronecker, "ms_abscissa", counting)
    sys = make_random_system(64, n=4, m=2)
    unstable = BilinearSystem.from_matrices(sys.A + 3.0 * np.eye(4), sys.B, sys.N, sys.C)
    k_max = stability_report(sys).k_max_estimate
    # the Gramian solves need none: a positive-definite Lyapunov solution
    # with -I already certifies mean-square stability
    for run, expected in ((lambda: stability_report(sys, 0.0), 1),
                          (lambda: stability_report(sys, 0.5), 1),
                          (lambda: type1_gramians(sys), 0),
                          (lambda: type2_gramians(sys, 0.5), 0),
                          (lambda: mixed_pair_Q1_P2(sys), 0)):
        calls.clear()
        run()
        assert len(calls) == expected
    # a failed solve is diagnosed by one stability report
    for run, error in ((lambda: type2_gramians(sys, 2.0 * k_max), RiccatiInfeasibleError),
                       (lambda: type1_gramians(unstable), MeanSquareInstabilityError)):
        calls.clear()
        with pytest.raises(error):
            run()
        assert len(calls) == 1
    # the perturbed abscissa is the exact shift of the unperturbed one
    for k in (0.0, 0.5, 1.3):
        rep = stability_report(sys, k)
        assert rep.perturbed_ms_abscissa == rep.ms_abscissa + k * k


def test_type1_unstable_reports_abscissa():
    from bilbt import kronecker

    stable = make_random_system(65, n=4, m=2)
    # beyond the boundary the -I solution is indefinite; on it the operator
    # is singular: both report the abscissa
    for sys in (BilinearSystem.from_matrices(stable.A + 3.0 * np.eye(4), stable.B,
                                             stable.N, stable.C),
                BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[1.5]]], [[1.0]]),
                BilinearSystem.from_matrices([[0.0]], [[1.0]], [[[0.0]]], [[1.0]])):
        msab = kronecker.ms_abscissa(sys.A, sys.N)
        assert msab >= 0.0
        with pytest.raises(MeanSquareInstabilityError) as exc_info:
            type1_gramians(sys)
        assert str(exc_info.value) == f"system is not mean-square stable (abscissa {msab:.3e})"


def test_type2_q_at_zero_k_equals_type1_q():
    # the shifted observability equation at k = 0 is exactly the plain one,
    # coupling or not
    for seed in (60, 61, 62):
        sys = make_random_system(seed, n=4, p=2)
        q2 = type2_gramians(sys, 0.0).Q
        q1 = type1_gramians(sys).Q
        assert np.linalg.norm(q2 - q1) / np.linalg.norm(q1) < 1e-9


def test_stochastic_p2_scalar(scalar_sys):
    pair = type2_gramians(scalar_sys, 0.0)
    assert pair.P[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-5)
    assert pair.diagnostics[0].definiteness_margin > 0.0


def test_mixed_pair_is_the_type2_pair_at_zero(scalar_sys):
    # (P2, Q1) is the type-2 pair at k = 0 relabelled: the same solves and
    # the same certificate, taken from the solver's X
    sys = make_random_system(54, n=3)
    systems = (scalar_sys, sys, make_random_system(56, n=4, m=2, p=2),
               BilinearSystem.from_matrices(sys.A, np.zeros((3, 1)), sys.N, sys.C))
    for sys in systems:
        mixed, pair = mixed_pair_Q1_P2(sys), type2_gramians(sys, 0.0)
        assert (mixed.kind, pair.kind) == ("mixed_Q1_P2", "type2_bilinear")
        assert np.array_equal(mixed.P, pair.P) and np.array_equal(mixed.Q, pair.Q)
        assert mixed.diagnostics == pair.diagnostics
        assert (mixed.k, mixed.delta, mixed.lmi_margin, mixed.minimal) \
            == (pair.k, pair.delta, pair.lmi_margin, pair.minimal)


def test_stochastic_p2_linear_limit():
    sys = make_random_system(53, n=3)
    lin = BilinearSystem.from_matrices(sys.A, sys.B, [np.zeros((3, 3))], sys.C)
    P2 = type2_gramians(lin, 0.0, delta=1e-9 * np.linalg.norm(lin.B @ lin.B.T, 2)).P
    P_lin = solve_continuous_lyapunov(lin.A, -lin.B @ lin.B.T)
    assert np.linalg.norm(P2 - P_lin) / np.linalg.norm(P_lin) < 1e-6


def test_mixed_pair_scalar(scalar_sys):
    pair = mixed_pair_Q1_P2(scalar_sys)
    assert pair.P[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-5)
    assert pair.Q[0, 0] == pytest.approx(4.0 / 7.0, abs=1e-10)
    assert pair.kind == "mixed_Q1_P2"


def test_mixed_pair_zero_b_flagged():
    sys = make_random_system(54, n=3)
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((3, 1)), sys.N, sys.C)
    pair = mixed_pair_Q1_P2(no_b)
    assert not pair.minimal


def test_covariance_transform_keeps_relations():
    sys = make_random_system(55, n=4)
    rng = np.random.default_rng(55)
    T = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)

    pair = type1_gramians(sys)
    moved = transform_gramians(pair, T)
    from bilbt import transform
    sys_t = transform(sys, T)
    # transformed Gramians satisfy the transformed equations
    res_p = sys_t.A @ moved.P + moved.P @ sys_t.A.T \
        + sum(Ni @ moved.P @ Ni.T for Ni in sys_t.N) + sys_t.B @ sys_t.B.T
    res_q = sys_t.A.T @ moved.Q + moved.Q @ sys_t.A \
        + sum(Ni.T @ moved.Q @ Ni for Ni in sys_t.N) + sys_t.C.T @ sys_t.C
    assert np.linalg.norm(res_p) / np.linalg.norm(moved.P) < 1e-8
    assert np.linalg.norm(res_q) / np.linalg.norm(moved.Q) < 1e-8


def test_covariance_transform_type2_feasibility():
    sys = make_random_system(56, n=3)
    rng = np.random.default_rng(56)
    T = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    pair = type2_gramians(sys, 0.3)
    moved = transform_gramians(pair, T)
    from bilbt import transform
    rep = check_lmi_feasibility(transform(sys, T), 0.3, moved.P)
    assert rep.feasible


def test_hsv_invariance_under_transform():
    for seed in (57, 58):
        sys = make_random_system(seed, n=4)
        pair = type2_gramians(sys, 0.2)
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        moved = transform_gramians(pair, T)
        ev = np.sort(np.linalg.eigvals(pair.P @ pair.Q).real)
        ev_t = np.sort(np.linalg.eigvals(moved.P @ moved.Q).real)
        assert np.linalg.norm(ev - ev_t) / np.linalg.norm(ev) < 1e-8


def test_q_continuity_in_k():
    sys = make_random_system(59, n=3)
    k0 = 0.3
    q = type2_gramians(sys, k0).Q
    # slope from a wider finite difference bounds the narrower one
    dq_wide = np.linalg.norm(type2_gramians(sys, k0 + 2e-4).Q - q)
    dq_narrow = np.linalg.norm(type2_gramians(sys, k0 + 1e-4).Q - q)
    assert dq_narrow <= 0.75 * dq_wide + 1e-10


def test_type2_reduction_builds_one_basis_and_one_factorization(monkeypatch):
    # the symmetric basis is built once per n, and the interior-point solve
    # and the Q solve share one LU factorization of the shifted operator
    import bilbt.matrix_equations
    from bilbt import square_root_balance, stability_report
    from bilbt.kronecker import sym_basis
    sys = make_random_system(58, n=6, m=2, p=2)
    factored = []
    dgetrf = bilbt.matrix_equations.dgetrf

    def counting(K):
        factored.append(K.shape)
        return dgetrf(K)

    monkeypatch.setattr(bilbt.matrix_equations, "dgetrf", counting)
    sym_basis.cache_clear()
    k = 0.5 * stability_report(sys).k_max_estimate
    square_root_balance(sys, type2_gramians(sys, k))
    assert sym_basis.cache_info().misses == 1
    assert factored == [(21, 21)]
    basis = sym_basis(6)
    assert basis is sym_basis(6)
    assert not any(array.flags.writeable for array in basis[1:])


PINNED_REDUCE = Path(__file__).parent / "data" / "reduce_corpus.json"
# the barrier's rounding stop on heat-20 moves with the BLAS thread count:
# trace P by 1.1e-6 relative and the Hankel values by 7.2e-7 of the largest
# between 1 and 2 threads; every other number of the corpus does not move
PINNED_REDUCE_TOL = 1e-5


def test_reduce_corpus_matches_the_pinned_results():
    # trace P, trace Q, Hankel values and barrier stop of each type-2 pair,
    # and the type-1 Hankel values or the exception where balancing fails;
    # tests/data/make_campaign_fixture.py rewrites the pin after a change
    # that is meant to move them
    pinned = json.loads(PINNED_REDUCE.read_text(encoding="utf-8"))
    assert pinned["heat-20"]["type1"] == {"error": "BalancingError"}
    fresh = {label: reduce_results(sys) for label, sys in reduce_corpus()}
    for label in pinned:
        for kind in ("type2", "type1"):
            want, got = pinned[label][kind].pop("hsv", []), fresh[label][kind].pop("hsv", [])
            scale = PINNED_REDUCE_TOL * max(want, default=0.0)
            assert len(got) == len(want) and np.allclose(got, want, rtol=0.0, atol=scale), \
                (label, kind)
    assert list(report_differences(pinned, fresh, PINNED_REDUCE_TOL)) == []
