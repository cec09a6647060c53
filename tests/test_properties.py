"""Property tests on seeded random systems with n in 2..5 and m in 1..2."""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bilbt import (
    BilinearSystem,
    CampaignConfig,
    benchmark_campaign,
    bounded_control_suite,
    campaign_to_json,
    check_error_bound,
    load_system,
    save_system,
    simulate_batch,
    square_root_balance,
    stability_report,
    transform,
    transform_gramians,
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.verification import random_ms_stable_system

SEEDS = st.integers(0, 2 ** 32 - 1)
DIMS = st.integers(2, 5)
INPUTS = st.integers(1, 2)
KINDS = st.sampled_from(["type1", "type2"])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _system(seed, n, m):
    return random_ms_stable_system(n, m, 1, np.random.default_rng(seed))


def _pair(sys, kind):
    if kind == "type1":
        return type1_gramians(sys)
    return type2_gramians(sys, 0.5 * stability_report(sys).k_max_estimate)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(SEEDS, DIMS, INPUTS)
def test_error_bound_holds_at_every_order(seed, n, m):
    sys = _system(seed, n, m)
    k = 0.5 * stability_report(sys).k_max_estimate
    bal = square_root_balance(sys, type2_gramians(sys, k))
    roms = [truncate(bal, r) for r in range(1, n)]
    suite = bounded_control_suite(m, k, 2.0, seed)
    full, *reduced = simulate_batch([sys] + [rom.system for rom in roms], suite, 2.0, 1e-3)
    for rom, runs in zip(roms, reduced):
        for u, traj, traj_rom in zip(suite, full, runs):
            _, cor = check_error_bound(rom, u, traj, traj_rom)
            assert cor.passed, (rom.r, u.label, cor.lhs, cor.rhs)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(SEEDS, DIMS, INPUTS, KINDS)
def test_hankel_values_invariant_under_similarity(seed, n, m, kind):
    sys = _system(seed, n, m)
    pair = _pair(sys, kind)
    # singular values in [0.5, 2]: condition number at most 4
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = U @ np.diag(rng.uniform(0.5, 2.0, n)) @ V
    hsv = square_root_balance(sys, pair).hsv
    moved = square_root_balance(transform(sys, T), transform_gramians(pair, T)).hsv
    assert np.abs(moved - hsv).max() <= 1e-8 * hsv[0]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(SEEDS, DIMS, INPUTS, KINDS)
def test_balanced_gramians_are_diagonal(seed, n, m, kind):
    sys = _system(seed, n, m)
    pair = _pair(sys, kind)
    bal = square_root_balance(sys, pair)
    sigma = np.diag(bal.hsv)
    moved = transform_gramians(pair, bal.T, bal.T_inv)
    for gramian in (moved.P, moved.Q):
        assert np.linalg.norm(gramian - sigma) <= 1e-8 * np.linalg.norm(sigma)


@st.composite
def systems(draw):
    n, m, p = draw(DIMS), draw(INPUTS), draw(st.integers(1, 2))
    return BilinearSystem.from_matrices(
        A=draw(arrays(float, (n, n), elements=FINITE)),
        B=draw(arrays(float, (n, m), elements=FINITE)),
        N=[draw(arrays(float, (n, n), elements=FINITE)) for _ in range(m)],
        C=draw(arrays(float, (p, n), elements=FINITE)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(systems())
def test_system_json_round_trip_is_bit_exact(sys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sys.json"
        save_system(sys, path)
        back = load_system(path)
    assert (back.n, back.m, back.p) == (sys.n, sys.m, sys.p)
    for a, b in zip((sys.A, sys.B, sys.C) + sys.N, (back.A, back.B, back.C) + back.N):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=5, deadline=None)
@given(SEEDS, DIMS, INPUTS)
def test_campaign_json_round_trip_is_bit_exact(seed, n, m):
    result = benchmark_campaign(CampaignConfig(seed=seed, T=0.1, h=1e-2),
                                [("random", _system(seed, n, m))])
    text = campaign_to_json(result)
    assert json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n" == text
