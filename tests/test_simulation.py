import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bilbt import (
    BilinearSystem,
    ControlSignal,
    SimulationBlowUpError,
    bounded_control_suite,
    simulate,
    simulate_groups,
    stability_report,
    transform,
)
from bilbt.simulation import (
    BLOCK_STEPS,
    _integrate,
    l2_richardson,
    quadrature_slack,
    stride2_points,
    trapezoid_pair,
)

from conftest import heat_rod, make_random_system


def scalar_linear():
    return BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.0]]], [[1.0]])


def scalar_bilinear(n1=0.5):
    return BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[n1]]], [[1.0]])


def test_zero_input_zero_state():
    traj = simulate(make_random_system(90, n=3), np.zeros(3),
                    ControlSignal.zero(1), 1.0, 1e-3)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.outputs == 0.0)
    assert traj.u_l2 == 0.0


def test_linear_step_response_closed_form():
    # x(t) = 1 - e^-t
    traj = simulate(scalar_linear(), [0.0], ControlSignal.constant([1.0]), 1.0, 1e-3)
    assert traj.states[-1, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-10)


def test_bilinear_cancellation_exact():
    # a + n1 * u = 0 with u = 1: dx/dt = 1, x(t) = t exactly
    traj = simulate(scalar_bilinear(1.0), [0.0], ControlSignal.constant([1.0]),
                    2.0, 1e-3)
    assert np.abs(traj.states[:, 0] - traj.grid).max() < 1e-12


def test_bilinear_constant_control_closed_form():
    # dx/dt = (a + n1 u) x + b u with constant u: x(t) = 2 (1 - e^{-t/2})
    traj = simulate(scalar_bilinear(), [0.0], ControlSignal.constant([1.0]),
                    2.0, 1e-3)
    exact = 2.0 * (1.0 - np.exp(-0.5 * traj.grid))
    assert np.abs(traj.states[:, 0] - exact).max() < 1e-11


def _integration_error(sys, h, exact_fn, T=1.0):
    traj = simulate(sys, [0.0], ControlSignal.constant([1.0]), T, h)
    return np.abs(traj.states[:, 0] - exact_fn(traj.grid)).max()


@pytest.mark.parametrize("sys,exact", [
    (scalar_linear(), lambda t: 1.0 - np.exp(-t)),
    (scalar_bilinear(), lambda t: 2.0 * (1.0 - np.exp(-0.5 * t))),
])
def test_fourth_order_convergence(sys, exact):
    err_h = _integration_error(sys, 0.02, exact)
    err_h2 = _integration_error(sys, 0.01, exact)
    assert err_h / err_h2 >= 12.0


def test_l2_norm_constant():
    traj = simulate(scalar_linear(), [0.0], ControlSignal.constant([1.0]), 1.0, 1e-3)
    assert l2_richardson(traj.inputs, traj.grid)[0] == pytest.approx(1.0, abs=1e-12)


def test_l2_norm_sinusoid():
    u = ControlSignal.sinusoid_bank([[1.0]], [[1.0]], [[0.0]])  # sin(2 pi t)
    traj = simulate(scalar_linear(), [0.0], u, 1.0, 1e-3)
    assert l2_richardson(traj.inputs, traj.grid)[0] == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_l2_difference_of_identical_is_zero():
    traj = simulate(scalar_linear(), [0.0], ControlSignal.constant([1.0]), 1.0, 1e-3)
    assert l2_richardson(traj.outputs - traj.outputs, traj.grid)[0] == 0.0


def test_running_norms_monotone():
    # the norms over growing horizons never decrease, and the norm over [0, 1]
    # is the norm of the first second of a longer run
    u = ControlSignal.sinusoid_bank([[1.0]], [[0.7]], [[0.1]])
    trajs = [simulate(scalar_bilinear(), [0.5], u, T, 1e-3) for T in (1.0, 2.0, 3.0)]
    assert np.all(np.diff([traj.u_l2 for traj in trajs]) >= 0.0)
    assert np.all(np.diff([traj.y_l2 for traj in trajs]) >= 0.0)
    head = slice(0, trajs[0].grid.size)
    assert trajs[0].u_l2 == pytest.approx(
        l2_richardson(trajs[-1].inputs[head], trajs[-1].grid[head])[0], rel=1e-12)
    assert trajs[0].y_l2 == pytest.approx(
        l2_richardson(trajs[-1].outputs[head], trajs[-1].grid[head])[0], rel=1e-12)


def test_suite_zero_bound_is_all_zero():
    for sig in bounded_control_suite(2, 0.0, 5.0, seed=1):
        t = np.linspace(0.0, 5.0, 101)
        assert np.all(sig(t) == 0.0)
        assert sig.k_bound == 0.0


def test_suite_constant_has_norm_k():
    suite = bounded_control_suite(3, 2.0, 5.0, seed=2)
    const = [s for s in suite if s.kind == "constant"][0]
    assert np.linalg.norm(const(0.0)) == pytest.approx(2.0, rel=1e-12)


def test_suite_pointwise_certificate():
    k = 1.3
    suite = bounded_control_suite(2, k, 4.0, seed=3)
    t = np.linspace(0.0, 4.0, 4001)
    for sig in suite:
        norms = np.sqrt((sig(t) ** 2).sum(axis=1))
        assert norms.max() <= k + 1e-12
        assert sig.k_bound <= k + 1e-12


def test_suite_deterministic_by_seed():
    a = bounded_control_suite(2, 1.0, 3.0, seed=11)
    b = bounded_control_suite(2, 1.0, 3.0, seed=11)
    t = np.linspace(0.0, 3.0, 500)
    for sa, sb in zip(a, b):
        assert sa.label == sb.label
        assert np.array_equal(sa(t), sb(t))


def test_io_invariance_under_transform(rng):
    sys = make_random_system(91, n=4)
    T_mat = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
    sys_t = transform(sys, T_mat)
    u = bounded_control_suite(1, 0.8, 3.0, seed=5)[2]
    t1 = simulate(sys, np.zeros(4), u, 3.0, 1e-3)
    t2 = simulate(sys_t, np.zeros(4), u, 3.0, 1e-3)
    assert np.abs(t1.outputs - t2.outputs).max() < 1e-9


def test_free_decay_envelope(rng):
    sys = make_random_system(92, n=4)
    rep = stability_report(sys)
    T = min(50.0 / abs(rep.spectral_abscissa_A), 60.0)
    x0 = rng.standard_normal(4)
    traj = simulate(sys, x0, ControlSignal.zero(sys.m), T, 2e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms[-1] <= 1e-6 * np.linalg.norm(x0)
    # eventually decreasing: monotone over the last quarter
    tail = norms[3 * norms.size // 4:]
    assert np.all(np.diff(tail) <= 1e-30)


def _reference_rk4(sys, x0, u, T, h):
    """Plain per-step RK4 with a finiteness check after every step: the
    reference for the batched integrator, in its scaled-increment form.
    Each stage's increment d is the slope of the system scaled by the
    stage's step (h/2 A, h/2 B, h/2 N_i, or the same times h), and the step
    is x + (d1 + 2 d2 + d3 + d4) / 3, so no unscaled slope or sum of slopes
    can overflow while the state is still finite.  Returns (states, first
    bad step)."""
    K = int(round(T / h))
    h = T / K
    u_half = u(np.linspace(0.0, T, 2 * K + 1))

    def increment(scale, x, j):
        dx = (scale * sys.A) @ x + (scale * sys.B) @ u_half[j]
        for Ni, ui in zip(sys.N, u_half[j]):
            dx = dx + ui * ((scale * Ni) @ x)
        return dx

    x = np.asarray(x0, dtype=float)
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(K):
            j = 2 * step
            d1 = increment(0.5 * h, x, j)
            d2 = increment(0.5 * h, x + d1, j + 1)
            d3 = increment(h, x + d2, j + 1)
            d4 = increment(0.5 * h, x + d3, j + 2)
            x = x + (d1 + 2.0 * d2 + d3 + d4) / 3.0
            if not np.isfinite(x.sum()):
                return np.array(states), step + 1
            states.append(x)
    return np.array(states), None


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


def test_batch_matches_separate_runs():
    full = make_random_system(93, n=5, m=2, p=2)
    others = [make_random_system(94, n=2, m=2, p=2), make_random_system(95, n=3, m=2, p=2)]
    controls = bounded_control_suite(2, 0.6, 2.0, seed=6)
    assert len(controls) >= 3
    trajs = simulate_groups([([full] + others, controls, None)], 2.0, 1e-3)[0]
    assert len(trajs) == 3 and all(len(row) == len(controls) for row in trajs)
    for sys, row in zip([full] + others, trajs):
        for u, traj in zip(controls, row):
            alone = simulate(sys, np.zeros(sys.n), u, 2.0, 1e-3)
            ref, bad = _reference_rk4(sys, np.zeros(sys.n), u, 2.0, 1e-3)
            assert bad is None
            assert np.array_equal(traj.grid, alone.grid)
            assert np.array_equal(traj.inputs, alone.inputs)
            if u.kind == "zero":
                assert np.all(traj.states == 0.0)
                continue
            assert _rel(traj.states, alone.states) <= 1e-13
            assert _rel(traj.outputs, alone.outputs) <= 1e-13
            assert _rel(traj.states, ref) <= 1e-13


def test_batch_initial_state_per_row():
    sys = make_random_system(96, n=3)
    x0 = np.random.default_rng(7).standard_normal((2, 3))
    u = ControlSignal.constant([0.3])
    trajs = simulate_groups([([sys], [u, u], [x0])], 1.0, 1e-3)[0][0]
    for x0_s, traj in zip(x0, trajs):
        alone = simulate(sys, x0_s, u, 1.0, 1e-3)
        ref, _ = _reference_rk4(sys, x0_s, u, 1.0, 1e-3)
        assert _rel(traj.states, alone.states) <= 1e-13
        assert _rel(traj.states, ref) <= 1e-13


def test_batch_rejects_mixed_input_counts():
    with pytest.raises(ValueError, match="inputs"):
        simulate_groups([([make_random_system(97, m=1), make_random_system(98, m=2)],
                          [ControlSignal.zero(1)], None)], 1.0, 1e-3)


@pytest.mark.parametrize("T, h", [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan),
                                  (1.0, np.inf), (1.0, 0.0), (1e-3, 1e-2)])
def test_grid_needs_a_finite_horizon(T, h):
    with pytest.raises(ValueError, match="need 0 < h <= T < inf"):
        simulate(scalar_linear(), np.zeros(1), ControlSignal.zero(1), T, h)


@pytest.mark.parametrize("h", [1e-15, 5e-324])
def test_grid_has_at_most_max_steps(h):
    # 1e16 steps, and T / h = inf: refused before any grid is allocated
    with pytest.raises(ValueError, match="steps over T=10.0"):
        simulate(scalar_linear(), np.zeros(1), ControlSignal.zero(1), 10.0, h)


def test_grid_cap_admits_max_steps(monkeypatch):
    monkeypatch.setattr("bilbt.simulation.MAX_STEPS", 100)
    u = ControlSignal.constant([1.0])
    assert simulate(scalar_linear(), np.zeros(1), u, 1.0, 1e-2).grid.size == 101
    with pytest.raises(ValueError, match="more than the 100 a grid may have"):
        simulate(scalar_linear(), np.zeros(1), u, 1.0, 1.0 / 101)


def _assert_the_state_overflows(states, bad):
    # every state before the reported step is finite, and one more step's
    # growth carries the last of them past the largest double: the state
    # itself overflows there, not a sum of slopes formed on the way
    assert len(states) == bad and np.all(np.isfinite(states))
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(states[-1] * (states[-1] / states[-2])))


def test_blow_up_reports_first_bad_step():
    sys = BilinearSystem.from_matrices([[100.0]], [[0.0]], [[[0.0]]], [[1.0]])
    with pytest.raises(SimulationBlowUpError) as exc_info:
        simulate(sys, [1.0], ControlSignal.zero(1), 10.0, 1e-3)
    states, bad = _reference_rk4(sys, [1.0], ControlSignal.zero(1), 10.0, 1e-3)
    _assert_the_state_overflows(states, bad)
    # the state overflows inside a block of steps, not at its end
    assert bad % BLOCK_STEPS != 0
    assert exc_info.value.step == bad
    assert exc_info.value.time == np.linspace(0.0, 10.0, 10001)[bad]


def test_blow_up_in_batch_reports_first_bad_row():
    # u = 1 drives the bilinear term to growth rate +99; the zero control decays
    sys = BilinearSystem.from_matrices([[-1.0]], [[0.0]], [[[100.0]]], [[1.0]])
    controls = [ControlSignal.zero(1), ControlSignal.constant([1.0])]
    with pytest.raises(SimulationBlowUpError) as exc_info:
        simulate_groups([([sys], controls, [[1.0]])], 10.0, 1e-3)
    states, bad = _reference_rk4(sys, [1.0], controls[1], 10.0, 1e-3)
    _assert_the_state_overflows(states, bad)
    assert exc_info.value.step == bad


def test_unevenly_spaced_coupled_columns_match_the_reference():
    # N_1 reads columns 0 and 1 and N_2 column 5, so the coupled columns R
    # are an index array and x[R] is a copy: every stage must gather it
    # afresh, in each of three blocks of steps
    rng = np.random.default_rng(31)
    n = 7
    A = rng.standard_normal((n, n)) - 3.0 * np.eye(n)
    N = [np.zeros((n, n)), np.zeros((n, n))]
    N[0][:, [0, 1]] = 0.3 * rng.standard_normal((n, 2))
    N[1][:, 5] = 0.4 * rng.standard_normal(n)
    sys = BilinearSystem.from_matrices(A, rng.standard_normal((n, 2)), N,
                                       rng.standard_normal((1, n)))
    T, h = 0.6, 1e-3
    assert round(T / h) > 2 * BLOCK_STEPS
    x0 = rng.standard_normal(n)
    for u in bounded_control_suite(2, 0.8, T, seed=31)[1:]:
        traj = simulate(sys, x0, u, T, h)
        states, bad = _reference_rk4(sys, x0, u, T, h)
        assert bad is None
        assert _rel(traj.states, states) <= 1e-13


def test_error_system_reads_only_the_coupled_columns(monkeypatch):
    # a heat rod beside a dense reduction, as `bilbt verify` simulates them:
    # the couplings read the rod's two ends and every reduced column, which
    # are not evenly spaced.  The coupled part of the stage product holds
    # those columns only, not their span over the whole error system
    n, r = 12, 4
    full = heat_rod(n)
    V = np.linalg.qr(np.random.default_rng(5).standard_normal((n, r)))[0]
    rom = BilinearSystem.from_matrices(V.T @ full.A @ V, V.T @ full.B,
                                       [V.T @ Ni @ V for Ni in full.N], full.C @ V)
    widths = []
    monkeypatch.setattr("bilbt.simulation._integrate",
                        lambda x, U, Wz, *args: widths.append(Wz.shape[1])
                        or _integrate(x, U, Wz, *args))
    suite = bounded_control_suite(2, 0.5, 0.05, seed=5)
    (trajs, _), = simulate_groups([([full, rom], suite, None)], 0.05, 1e-3)
    assert widths == [(n + r) + 2 * (2 + r) + 2]
    for u, traj in zip(suite, trajs):
        assert _rel(traj.states, simulate(full, np.zeros(n), u, 0.05, 1e-3).states) <= 1e-13


def _random_model(rng, n, m, coupled, coupling="dense"):
    """A small random model whose coupling is zero outside the inputs in
    `coupled`; integrated over short horizons only.  `coupling` shapes each
    coupled N_i: "dense", "columns" (dense with some columns zero), "entry"
    (one diagonal entry at an end of the state, as at a heat rod's boundary)
    or "zero" (all zero, although the input is listed as coupled)."""
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    N = [np.zeros((n, n)) for _ in range(m)]
    for i in coupled:
        if coupling == "entry":
            end = (0, n - 1)[i % 2]
            N[i][end, end] = -rng.uniform(0.1, 1.0)
        elif coupling != "zero":
            N[i] = 0.3 * rng.standard_normal((n, n))
            if coupling == "columns":
                N[i][:, rng.random(n) < 0.5] = 0.0
    return BilinearSystem.from_matrices(A, rng.standard_normal((n, m)), N,
                                        rng.standard_normal((2, n)))


GROUP = st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3),  # n per model
                  st.integers(1, 4),                                    # controls
                  st.sampled_from([(), (0,), (1,), (0, 1)]),            # coupled inputs
                  st.booleans(),                                        # random x0
                  st.sampled_from(["dense", "columns", "entry", "zero"]))  # shape of N_i


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(GROUP, min_size=1, max_size=4))
# heat-rod couplings beside dense, column-sparse and zero ones in one call
@example(5, [([4], 2, (0, 1), True, "entry"), ([3, 2], 3, (0, 1), False, "dense"),
             ([4, 1], 1, (1,), True, "columns"), ([2], 2, (0,), False, "zero")])
@example(6, [([3, 4], 2, (0, 1), True, "entry"), ([1], 1, (0,), False, "zero")])
@example(7, [([2, 3], 2, (0, 1), True, "zero"), ([4], 3, (1,), False, "zero")])
def test_groups_match_each_group_alone(seed, shapes):
    rng = np.random.default_rng(seed)
    T, h = 3.0, 1e-2  # 300 steps: more than one block of BLOCK_STEPS
    suite = bounded_control_suite(2, 0.8, T, seed)
    groups = []
    for dims, S, coupled, random_x0, coupling in shapes:
        systems = [_random_model(rng, n, 2, coupled, coupling) for n in dims]
        controls = [suite[int(i)] for i in rng.integers(0, len(suite), S)]
        x0 = [rng.standard_normal((S, n)) for n in dims] if random_x0 else None
        groups.append((systems, controls, x0))
    together = simulate_groups(groups, T, h)
    assert len(together) == len(groups)
    for (systems, controls, x0), runs in zip(groups, together):
        alone = simulate_groups([(systems, controls, x0)], T, h)[0]
        assert [len(row) for row in runs] == [len(controls)] * len(systems)
        for i, (sys, row, row_alone) in enumerate(zip(systems, runs, alone)):
            for traj, ref in zip(row, row_alone):
                assert np.array_equal(traj.grid, ref.grid)
                assert np.array_equal(traj.inputs, ref.inputs)
                assert _rel(traj.states, ref.states) <= 1e-13
                assert _rel(traj.outputs, ref.outputs) <= 1e-13
            # the first row of each model against the per-step reference
            x0_i = x0[i][0] if x0 is not None else np.zeros(sys.n)
            states, bad = _reference_rk4(sys, x0_i, controls[0], T, h)
            assert bad is None
            assert _rel(row[0].states, states) <= 1e-13


def _exploding(rate):
    # dx/dt = rate * x from x(0) = 1 overflows, at step 7098 for rate 100
    # and within the first block of steps for rate 5000
    return ([BilinearSystem.from_matrices([[rate]], [[0.0]], [[[0.0]]], [[1.0]])],
            [ControlSignal.zero(1)], [[1.0]])


def test_groups_blow_up_reports_the_first_failing_group():
    late, early = _exploding(100.0), _exploding(5000.0)
    steps = {}
    for name, group in (("late", late), ("early", early)):
        with pytest.raises(SimulationBlowUpError) as alone:
            simulate_groups([group], 10.0, 1e-3)
        steps[name] = alone.value
    assert steps["early"].step < BLOCK_STEPS < steps["late"].step
    decaying = _exploding(-1.0)
    for groups, expected in (([decaying, late, early], steps["late"]),
                             ([early, late], steps["early"])):
        with pytest.raises(SimulationBlowUpError) as info:
            simulate_groups(groups, 10.0, 1e-3)
        assert info.value.args == expected.args
        assert (info.value.step, info.value.time) == (expected.step, expected.time)


def test_groups_reject_mixed_input_counts():
    one, two = make_random_system(97, m=1), make_random_system(98, m=2)
    with pytest.raises(ValueError, match="inputs"):
        simulate_groups([([one], [ControlSignal.zero(1)], None),
                         ([two], [ControlSignal.zero(2)], None)], 1.0, 1e-3)
    assert simulate_groups([], 1.0, 1e-3) == []


def test_wide_simulation_memory_is_bounded():
    # a 64-node rod over 2000 steps: states are 1 MB, nothing else grows with K
    n = 64
    A = 100.0 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
                 + np.diag(np.ones(n - 1), -1))
    B = np.zeros((n, 2))
    N = [np.zeros((n, n)), np.zeros((n, n))]
    for i, end in enumerate((0, n - 1)):
        B[end, i] = 1.0
        N[i][end, end] = -1.0
    sys = BilinearSystem.from_matrices(A, B, N, np.ones((1, n)) / n)
    u = bounded_control_suite(2, 1.0, 2.0, seed=8)[2]
    tracemalloc.start()
    try:
        simulate(sys, np.zeros(n), u, 2.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_stacked_groups_memory_is_bounded():
    # a campaign system's call: 7 groups of a 20-state model beside its three
    # reductions (n = 50) under 7 controls, over two blocks of steps; beside
    # the stored states, working memory holds one block and no per-block
    # forcing of every state column
    rng = np.random.default_rng(12)
    T = 0.5
    suite = bounded_control_suite(2, 0.8, T, seed=12)
    groups = [([_random_model(rng, n, 2, (0, 1)) for n in (20, 1, 10, 19)],
               [suite[i % len(suite)] for i in range(7)], None) for _ in range(7)]
    assert round(T / 1e-3) > BLOCK_STEPS
    tracemalloc.start()
    try:
        runs = simulate_groups(groups, T, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(traj.states.nbytes for group in runs for row in group for traj in row)
    assert peak - stored < 10e6


def test_grid_uniform_and_h_adjusted():
    traj = simulate(scalar_linear(), [0.0], ControlSignal.zero(1), 1.0, 0.3)
    # 1.0 / 0.3 rounds to 3 steps of 1/3
    assert traj.grid.size == 4
    assert traj.h == pytest.approx(1.0 / 3.0)
    steps = np.diff(traj.grid)
    assert np.allclose(steps, steps[0])


def test_quadrature_slack_estimates_error():
    # trapezoid error for sin^2(2 pi t) at h = 0.01 is about (actual known)
    grid = np.linspace(0.0, 1.0, 101)
    values = np.sin(2 * np.pi * grid)[:, None]
    fine, coarse = l2_richardson(values, grid)
    eps = quadrature_slack((fine, coarse), floor=0.0)
    true_err = abs(fine - np.sqrt(0.5))
    assert true_err <= 10.0 * eps
    assert eps <= 1e-3


@pytest.mark.parametrize("K", [1, 2, 9, 10, 11])
def test_stride2_rule_keeps_every_second_point_and_the_last(K):
    # the 2h rule of `trapezoid_pair` and of the Gronwall envelope: for even
    # K it is the plain stride-2 trapezoid sum, bit for bit; for odd K its
    # last interval is of step h
    grid = np.linspace(0.0, 1.0, K + 1)
    f = np.exp(grid)
    points = stride2_points(K)
    assert points.tolist() == sorted(set(range(0, K + 1, 2)) | {K})
    fine, coarse = trapezoid_pair(f, grid)
    assert fine == np.trapezoid(f, grid)
    if K % 2 == 0:
        assert coarse == np.trapezoid(f[::2], grid[::2])
    assert coarse == pytest.approx(np.e - 1.0, rel=0.5 / K ** 2)


@pytest.mark.parametrize("K", range(1, 10))
def test_stride2_points_are_shared_and_read_only(K):
    # built once per K for every caller, so no caller may write to them
    points = stride2_points(K)
    assert stride2_points(K) is points
    assert not points.flags.writeable
    assert np.array_equal(points, np.union1d(np.arange(0, K + 1, 2), [K]))
    with pytest.raises(ValueError, match="read-only"):
        points[0] = 1
