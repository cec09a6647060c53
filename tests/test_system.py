import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilbt import (
    BilinearSystem,
    ControlSignal,
    KroneckerCapError,
    LyapunovOperator,
    RiccatiInequalityProblem,
    load_system,
    mixed_pair_Q1_P2,
    rescale,
    save_system,
    simulate,
    solve_type2_riccati,
    stability_report,
    transform,
    type1_gramians,
    type2_gramians,
    validate,
)
from bilbt.kronecker import MAX_KRON_N
from bilbt.system import _k_max, system_from_dict, system_to_dict

from conftest import make_random_system


def test_validate_accepts_consistent_system():
    sys = BilinearSystem.from_matrices(
        [[-1.0, 0.0], [0.0, -2.0]], [[1.0], [0.0]],
        [[[0.1, 0.0], [0.0, 0.1]]], [[1.0, 1.0]])
    assert validate(sys).ok


def test_validate_reports_all_violations():
    # B has the wrong row count and A carries a NaN: both must be reported
    sys = BilinearSystem(
        A=np.array([[-1.0, 0.0], [0.0, np.nan]]),
        B=np.ones((3, 1)),
        N=(np.zeros((2, 2)),),
        C=np.ones((1, 2)),
        n=2, m=1, p=1)
    result = validate(sys)
    assert not result.ok
    assert len(result.issues) == 2
    assert any("B has shape" in msg for msg in result.issues)
    assert any("non-finite" in msg for msg in result.issues)


def test_validate_empty_coupling_list():
    sys = BilinearSystem(A=-np.eye(2), B=np.ones((2, 1)), N=(),
                         C=np.ones((1, 2)), n=2, m=1, p=1)
    result = validate(sys)
    assert not result.ok
    assert any("empty" in msg for msg in result.issues)


def test_stability_scalar_no_coupling():
    sys = BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.0]]], [[1.0]])
    rep = stability_report(sys)
    assert rep.hurwitz
    assert rep.ms_abscissa == pytest.approx(-2.0, abs=1e-12)


def test_stability_scalar_with_coupling(scalar_sys):
    rep = stability_report(scalar_sys, k=0.0)
    # 2*(-1) + 0.5^2
    assert rep.ms_abscissa == pytest.approx(-1.75, abs=1e-12)


def test_stability_perturbed_scalar(scalar_sys):
    rep = stability_report(scalar_sys, k=1.0)
    assert rep.perturbed_ms_abscissa == pytest.approx(-0.75, abs=1e-10)


def test_perturbed_shift_is_k_squared(scalar_sys):
    base = stability_report(scalar_sys, k=0.0).ms_abscissa
    for k in (0.0, 0.5, 1.0, 2.0):
        rep = stability_report(scalar_sys, k=k)
        assert rep.perturbed_ms_abscissa - base == pytest.approx(k * k, abs=1e-10)


def test_perturbed_shift_random_system():
    sys = make_random_system(11, n=5)
    base = stability_report(sys).ms_abscissa
    for k in (0.5, 1.0, 2.0):
        rep = stability_report(sys, k=k)
        assert rep.perturbed_ms_abscissa - base == pytest.approx(k * k, abs=1e-10)


def test_k_max_bisection_stops_at_float_spacing():
    # above sqrt(-msab) ~ 4.5e7 the float spacing of k exceeds 1e-8, where a
    # bisection to that tolerance never stopped
    result = []
    worker = threading.Thread(target=lambda: result.append(_k_max(-2e16)),
                              daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    assert result[0] == pytest.approx(np.sqrt(2e16), rel=1e-15)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.floats(-1e300, -1e-300))
def test_k_max_is_the_largest_float_below_the_boundary(msab):
    k = _k_max(msab)
    assert msab + k * k < 0.0
    up = float(np.nextafter(k, np.inf))
    assert msab + up * up >= 0.0
    # no bound keeps an unstable pair stable
    assert _k_max(-msab) == 0.0


def test_k_max_estimate_matches_closed_form(scalar_sys):
    rep = stability_report(scalar_sys)
    assert rep.k_max_estimate == pytest.approx(np.sqrt(1.75), abs=1e-6)
    # the estimate itself keeps the perturbed pair stable
    assert stability_report(scalar_sys, rep.k_max_estimate - 1e-6).perturbed_ms_abscissa < 0


def test_linear_ms_abscissa_is_twice_spectral():
    for seed in (0, 1, 2):
        sys = make_random_system(seed, n=5)
        lin = BilinearSystem.from_matrices(
            sys.A, sys.B, [np.zeros((5, 5))] * sys.m, sys.C)
        rep = stability_report(lin)
        assert rep.ms_abscissa == pytest.approx(2.0 * rep.spectral_abscissa_A, abs=1e-8)


def test_kronecker_cap():
    # one cap for the whole pipeline: every dense entry point refuses n above it
    n = MAX_KRON_N + 1
    sys = BilinearSystem.from_matrices(-np.eye(n), np.ones((n, 1)),
                                       [0.1 * np.eye(n)], np.ones((1, n)))
    calls = {
        "stability_report": lambda: stability_report(sys),
        "type1_gramians": lambda: type1_gramians(sys),
        "type2_gramians": lambda: type2_gramians(sys, 0.1),
        "mixed_pair_Q1_P2": lambda: mixed_pair_Q1_P2(sys),
        "LyapunovOperator": lambda: LyapunovOperator(sys.A, sys.N).solve(
            -sys.B @ sys.B.T, "reachability"),
        "solve_type2_riccati": lambda: solve_type2_riccati(
            RiccatiInequalityProblem(A_shifted=sys.A, N=sys.N, B=sys.B, delta=1e-6)),
    }
    uncapped = []
    for name, call in calls.items():
        try:
            call()
        except KroneckerCapError:
            continue
        uncapped.append(name)
    assert not uncapped


def test_rescale_identity(scalar_sys):
    out = rescale(scalar_sys, 1.0)
    assert np.array_equal(out.B, scalar_sys.B)
    assert np.array_equal(out.N[0], scalar_sys.N[0])


def test_rescale_scalar_division():
    sys = BilinearSystem.from_matrices([[-1.0]], [[2.0]], [[[0.5]]], [[1.0]])
    out = rescale(sys, 2.0)
    assert out.B[0, 0] == pytest.approx(1.0)
    assert out.N[0][0, 0] == pytest.approx(0.25)
    assert np.array_equal(out.A, sys.A)
    assert np.array_equal(out.C, sys.C)


def test_rescale_rejects_nonpositive():
    sys = make_random_system(0)
    for gamma in (0.0, -1.0):
        with pytest.raises(ValueError):
            rescale(sys, gamma)


def test_rescale_simulation_equivalence(scalar_sys):
    # driving the rescaled system with gamma * u reproduces the trajectory
    gamma = 2.0
    scaled = rescale(scalar_sys, gamma)
    u = ControlSignal.constant([1.0])
    u_gamma = ControlSignal.constant([gamma])
    t1 = simulate(scalar_sys, [0.0], u, 2.0, 1e-3)
    t2 = simulate(scaled, [0.0], u_gamma, 2.0, 1e-3)
    assert np.abs(t1.states - t2.states).max() < 1e-10


def test_transform_identity(worked_sys):
    out = transform(worked_sys, np.eye(2))
    assert np.allclose(out.A, worked_sys.A, atol=1e-14)


def test_transform_scaling(worked_sys):
    out = transform(worked_sys, 2.0 * np.eye(2))
    assert np.allclose(out.A, worked_sys.A, atol=1e-14)
    assert np.allclose(out.B, 2.0 * worked_sys.B, atol=1e-14)
    assert np.allclose(out.C, 0.5 * worked_sys.C, atol=1e-14)
    assert np.allclose(out.N[0], worked_sys.N[0], atol=1e-14)


def test_transform_round_trip(rng):
    sys = make_random_system(7, n=5)
    for _ in range(5):
        T = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
        if np.linalg.cond(T) > 1e4:
            continue
        back = transform(transform(sys, T), np.linalg.inv(T))
        for got, want in ((back.A, sys.A), (back.B, sys.B),
                          (back.C, sys.C), (back.N[0], sys.N[0])):
            denom = max(np.linalg.norm(want), 1.0)
            assert np.linalg.norm(got - want) / denom < 1e-10


def test_transform_preserves_io(worked_sys, rng):
    T = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    sys_t = transform(worked_sys, T)
    u = ControlSignal.sinusoid_bank([[0.8]], [[0.4]], [[0.3]])
    t1 = simulate(worked_sys, np.zeros(2), u, 4.0, 1e-3)
    t2 = simulate(sys_t, np.zeros(2), u, 4.0, 1e-3)
    assert np.abs(t1.outputs - t2.outputs).max() < 1e-10


def test_transform_condition_cap():
    sys = make_random_system(9, n=3)
    T = np.diag([1.0, 1.0, 1e-12])
    with pytest.raises(ValueError, match="condition"):
        transform(sys, T)


def test_json_round_trip_bit_exact(tmp_path, rng):
    sys = make_random_system(5, n=4, m=2, p=3)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    loaded = load_system(path)
    assert np.array_equal(loaded.A, sys.A)
    assert np.array_equal(loaded.B, sys.B)
    assert np.array_equal(loaded.C, sys.C)
    for Ni, Mi in zip(loaded.N, sys.N):
        assert np.array_equal(Ni, Mi)
    # a second save of the reloaded system is byte-identical
    path2 = tmp_path / "sys2.json"
    save_system(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_system_dict_shape():
    sys = make_random_system(6, n=2, m=1, p=1)
    data = system_to_dict(sys)
    assert set(data) == {"n", "m", "p", "A", "B", "N", "C"}
    again = system_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(again.A, sys.A)
