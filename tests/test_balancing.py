import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from bilbt import (
    BalancingError,
    BilinearSystem,
    GramianPair,
    check_lmi_feasibility,
    order_selector,
    square_root_balance,
    transform_gramians,
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.balancing import BalancedRealization, group_distinct
from bilbt.matrix_equations import SolveDiagnostics

from conftest import make_random_system


def _pair(P, Q, kind="type1", k=0.0):
    diag = SolveDiagnostics(method="kronecker_direct", iterations=1,
                            residual_norm=0.0, definiteness_margin=0.0)
    return GramianPair(P=np.asarray(P, dtype=float), Q=np.asarray(Q, dtype=float),
                       kind=kind, k=k, diagnostics=(diag, diag))


def test_identity_gramians_balance_trivially():
    sys = make_random_system(70, n=3)
    bal = square_root_balance(sys, _pair(np.eye(3), np.eye(3)))
    assert np.allclose(bal.hsv, 1.0, atol=1e-12)
    assert np.allclose(bal.T @ bal.T.T, np.eye(3), atol=1e-10)


def test_scalar_balance(scalar_sys):
    bal = square_root_balance(scalar_sys, _pair([[4.0 / 3.0]], [[4.0 / 3.0]]))
    assert bal.hsv[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert abs(bal.T[0, 0]) == pytest.approx(1.0, rel=1e-12)


def test_diagonal_cross_balance():
    sys = make_random_system(71, n=2)
    bal = square_root_balance(sys, _pair(np.diag([4.0, 1.0]), np.diag([1.0, 4.0])))
    assert np.allclose(bal.hsv, [2.0, 2.0], atol=1e-10)
    P_hat = bal.T @ np.diag([4.0, 1.0]) @ bal.T.T
    assert np.allclose(P_hat, np.diag(bal.hsv), atol=1e-10)


def test_balanced_gramians_equal_hsv_diagonal():
    for seed, k in ((72, 0.2), (73, 0.4)):
        sys = make_random_system(seed, n=5, m=2, p=2)
        pair = type2_gramians(sys, k)
        bal = square_root_balance(sys, pair)
        sigma = np.diag(bal.hsv)
        P_hat = bal.T @ pair.P @ bal.T.T
        Q_hat = bal.T_inv.T @ pair.Q @ bal.T_inv
        assert np.linalg.norm(P_hat - sigma) / np.linalg.norm(sigma) < 1e-8
        assert np.linalg.norm(Q_hat - sigma) / np.linalg.norm(sigma) < 1e-8
        assert np.linalg.norm(bal.T @ bal.T_inv - np.eye(5)) < 1e-8
        assert np.all(np.diff(bal.hsv) <= 1e-15)
        assert bal.hsv[-1] > 0.0


def test_hsv_equals_sqrt_eigs_of_pq():
    sys = make_random_system(74, n=4)
    pair = type1_gramians(sys)
    bal = square_root_balance(sys, pair)
    expected = np.sqrt(np.sort(np.linalg.eigvals(pair.P @ pair.Q).real)[::-1])
    assert np.linalg.norm(bal.hsv - expected) / np.linalg.norm(expected) < 1e-9


def test_balanced_system_lmi_feasible_with_sigma():
    sys = make_random_system(75, n=4)
    k = 0.3
    pair = type2_gramians(sys, k)
    bal = square_root_balance(sys, pair)
    rep = check_lmi_feasibility(bal.system, k, np.diag(bal.hsv))
    assert rep.feasible


def test_balance_covariant_gramians_reproduce_hsv():
    sys = make_random_system(76, n=4)
    pair = type1_gramians(sys)
    bal = square_root_balance(sys, pair)
    rng = np.random.default_rng(76)
    T = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    from bilbt import transform
    bal_t = square_root_balance(transform(sys, T), transform_gramians(pair, T))
    assert np.linalg.norm(bal.hsv - bal_t.hsv) / np.linalg.norm(bal.hsv) < 1e-8


def test_unobservable_gramian_rejected():
    sys = make_random_system(77, n=3)
    with pytest.raises(BalancingError):
        square_root_balance(sys, _pair(np.eye(3), np.zeros((3, 3))))


def test_truncate_single_tail():
    sys = make_random_system(78, n=4)
    pair = type1_gramians(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 3)
    assert rom.tail_hsv.shape == (1,)
    assert rom.bound_all == pytest.approx(2.0 * bal.hsv[-1], rel=1e-12)
    assert rom.bound_distinct == pytest.approx(rom.bound_all, rel=1e-12)


def test_truncate_grouping_arithmetic():
    # tail [3, 3, 1]: sum bound 14, distinct bound 8
    sys = make_random_system(79, n=4)
    bal = BalancedRealization(system=sys, T=np.eye(4), T_inv=np.eye(4),
                              hsv=np.array([5.0, 3.0, 3.0 * (1 + 1e-13), 1.0]),
                              gramian_kind="type1", k=0.0)
    rom = truncate(bal, 1)
    assert rom.bound_all == pytest.approx(14.0, rel=1e-10)
    assert rom.bound_distinct == pytest.approx(8.0, rel=1e-10)
    assert rom.bound_distinct <= rom.bound_all


def test_group_distinct_tolerance():
    reps = group_distinct(np.array([3.0, 3.0 - 1e-12, 1.0]))
    assert reps == [3.0, 1.0]
    reps = group_distinct(np.array([3.0, 2.9, 1.0]))
    assert len(reps) == 3


def test_truncate_blocks_match_partition():
    sys = make_random_system(80, n=5, m=2, p=2)
    pair = type1_gramians(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 2)
    assert rom.system.n == 2
    assert np.array_equal(rom.system.A, bal.system.A[:2, :2])
    assert np.array_equal(rom.system.B, bal.system.B[:2, :])
    assert np.array_equal(rom.system.C, bal.system.C[:, :2])
    assert len(rom.system.N) == 2
    for Ni, Mi in zip(rom.system.N, bal.system.N):
        assert np.array_equal(Ni, Mi[:2, :2])
    assert rom.r == 2 and rom.tail_hsv.size == 3
    assert rom.gramian_kind == pair.kind


def test_truncate_range_errors():
    sys = make_random_system(81, n=3)
    bal = square_root_balance(sys, type1_gramians(sys))
    for r in (0, 3, 5):
        with pytest.raises(ValueError):
            truncate(bal, r)


def test_order_selector_examples():
    assert order_selector([1.0, 1e-6], 1e-3) == 1
    assert order_selector([1.0, 1.0], 1e-3) == 2
    assert order_selector([1.0, 0.1, 0.01], 0.25) == 1


def test_worked_2x2_pipeline_bound(worked_sys):
    pair = type2_gramians(worked_sys, 1.0)
    bal = square_root_balance(worked_sys, pair)
    rom = truncate(bal, 1)
    assert rom.bound_all == pytest.approx(2.0 * bal.hsv[1], rel=1e-12)


def linear_bt_oracle(A, B, C, r):
    """Textbook linear balanced truncation with the same sign convention."""
    P = solve_continuous_lyapunov(A, -B @ B.T)
    Q = solve_continuous_lyapunov(A.T, -C.T @ C)
    K = np.linalg.cholesky(P)
    L = np.linalg.cholesky(Q)
    V, s, Uh = np.linalg.svd(K.T @ L)
    U = Uh.T
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    T = (1.0 / np.sqrt(s))[:, None] * (U.T @ L.T)
    T_inv = (K @ V) * (1.0 / np.sqrt(s))[None, :]
    Ab, Bb, Cb = T @ A @ T_inv, T @ B, C @ T_inv
    return Ab[:r, :r], Bb[:r, :], Cb[:, :r], s


def test_linear_truncation_matches_textbook_oracle():
    sys = make_random_system(82, n=6, m=2, p=2)
    lin = BilinearSystem.from_matrices(sys.A, sys.B, [np.zeros((6, 6))] * 2, sys.C)
    pair = type1_gramians(lin)
    bal = square_root_balance(lin, pair)
    rom = truncate(bal, 3)
    A_o, B_o, C_o, s_o = linear_bt_oracle(lin.A, lin.B, lin.C, 3)
    assert np.linalg.norm(bal.hsv - s_o) / np.linalg.norm(s_o) < 1e-9
    assert np.allclose(rom.system.A, A_o, atol=1e-9)
    assert np.allclose(rom.system.B, B_o, atol=1e-9)
    assert np.allclose(rom.system.C, C_o, atol=1e-9)
    # the certified constant reproduces the classical linear value
    assert rom.bound_all == pytest.approx(2.0 * s_o[3:].sum(), abs=1e-9)
