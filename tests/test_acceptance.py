"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The campaign-backed
criteria share one seeded default campaign (T = 10, h = 1e-3).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from bilbt import (
    BilinearSystem,
    CampaignConfig,
    ControlSignal,
    LyapunovOperator,
    benchmark_campaign,
    campaign_to_json,
    check_lmi_feasibility,
    simulate,
    square_root_balance,
    stability_report,
    transform_gramians,
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.verification import (
    K_FRACTIONS,
    build_campaign_systems,
    random_ms_stable_system,
    worked_2x2,
)

from conftest import compact_report, report_differences

CAMPAIGN_SEED = 2026
PINNED_CAMPAIGN = Path(__file__).parent / "data" / "campaign_seed2026.jsonl"
# the largest relative change between 1 and 2 BLAS threads is 3.15e-6 (an lhs
# of 3.5e-6); the non-float fields do not change
PINNED_REL_TOL = 1e-5


def _announce(num, passed, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def campaign():
    config = CampaignConfig(seed=CAMPAIGN_SEED)
    start = time.time()
    result = benchmark_campaign(config, build_campaign_systems(config.seed))
    return config, result, time.time() - start


def _kron_oracle(M, N_list, RHS, side):
    n = M.shape[0]
    K = np.kron(np.eye(n), M) + np.kron(M, np.eye(n))
    for Ni in N_list:
        K += np.kron(Ni, Ni)
    if side == "observability":
        K = K.T
    return np.linalg.solve(K, RHS.reshape(-1, order="F")).reshape((n, n), order="F")


def test_criterion_1_solver_oracle_equivalence():
    """Generalized Lyapunov solutions match the Kronecker-vectorization oracle
    within 1e-8 relative Frobenius on 50 seeded systems, n in 2..20, < 30 s."""
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        sys = random_ms_stable_system(n, m, p, rng)
        k = 0.5 * stability_report(sys).k_max_estimate
        A_s = sys.A + 0.5 * k * k * np.eye(n)
        # one operator per drift serves both of its sides
        unshifted = LyapunovOperator(sys.A, sys.N)
        for operator, side, RHS in (
                (unshifted, "reachability", -sys.B @ sys.B.T),
                (unshifted, "observability", -sys.C.T @ sys.C),
                (LyapunovOperator(A_s, sys.N), "observability", -sys.C.T @ sys.C)):
            X, _ = operator.solve(RHS, side)
            oracle = _kron_oracle(operator.M, list(sys.N), RHS, side)
            rel = np.linalg.norm(X - oracle) / max(np.linalg.norm(oracle), 1e-30)
            worst = max(worst, rel)
    elapsed = time.time() - start
    _announce(1, worst <= 1e-8 and elapsed < 30.0,
              f"worst relative error {worst:.2e} (tol 1e-8), "
              f"runtime {elapsed:.1f} s (target < 30 s)")


def test_criterion_2_scalar_closed_forms():
    """P1 = Q1 = 4/7 within 1e-10; type II P = Q = 4/3 at k = 1 within 1e-5."""
    sys = BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.5]]], [[1.0]])
    pair1 = type1_gramians(sys)
    err1 = max(abs(pair1.P[0, 0] - 4.0 / 7.0), abs(pair1.Q[0, 0] - 4.0 / 7.0))
    pair2 = type2_gramians(sys, 1.0)
    err2 = max(abs(pair2.P[0, 0] - 4.0 / 3.0), abs(pair2.Q[0, 0] - 4.0 / 3.0))
    _announce(2, err1 <= 1e-10 and err2 <= 1e-5,
              f"type I error {err1:.2e} (tol 1e-10), "
              f"type II error {err2:.2e} (tol 1e-5)")


def test_criterion_3_lmi_certification(campaign):
    """Every control-bounded P used by the campaign passes the Schur-block
    certificate with largest eigenvalue <= 1e-8."""
    config, _, _ = campaign
    worst = -np.inf
    checked = 0
    for label, sys in build_campaign_systems(config.seed):
        rep = stability_report(sys)
        if rep.ms_abscissa >= 0.0:
            continue
        for frac in K_FRACTIONS:
            k = frac * rep.k_max_estimate
            pair = type2_gramians(sys, k, delta=config.delta)
            cert = check_lmi_feasibility(sys, k, pair.P)
            worst = max(worst, cert.largest_eigenvalue)
            checked += 1
    _announce(3, checked > 0 and worst <= 1e-8,
              f"{checked} certificates, worst eigenvalue {worst:.2e} (tol 1e-8)")


def test_criterion_4_balancing_exactness():
    """Balanced Gramians equal diag(hsv) within 1e-8; Hankel values invariant
    under similarity transforms within 1e-8; linear path matches a textbook
    balanced-truncation oracle within 1e-9."""
    rng = np.random.default_rng(44)
    worst_bal, worst_inv = 0.0, 0.0
    for seed in (301, 302, 303):
        sys = random_ms_stable_system(5, 2, 2, np.random.default_rng(seed))
        k = 0.5 * stability_report(sys).k_max_estimate
        pair = type2_gramians(sys, k)
        bal = square_root_balance(sys, pair)
        sigma = np.diag(bal.hsv)
        worst_bal = max(
            worst_bal,
            np.linalg.norm(bal.T @ pair.P @ bal.T.T - sigma) / np.linalg.norm(sigma),
            np.linalg.norm(bal.T_inv.T @ pair.Q @ bal.T_inv - sigma)
            / np.linalg.norm(sigma))
        T = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
        moved = transform_gramians(pair, T)
        hsv_t = np.sqrt(np.sort(np.linalg.eigvals(moved.P @ moved.Q).real)[::-1])
        worst_inv = max(worst_inv,
                        np.linalg.norm(hsv_t - bal.hsv) / np.linalg.norm(bal.hsv))

    # linear path against an inline textbook oracle
    lin_base = random_ms_stable_system(6, 2, 2, np.random.default_rng(304))
    lin = BilinearSystem.from_matrices(lin_base.A, lin_base.B,
                                       [np.zeros((6, 6))] * 2, lin_base.C)
    pair_lin = type1_gramians(lin)
    bal_lin = square_root_balance(lin, pair_lin)
    rom = truncate(bal_lin, 3)
    P = solve_continuous_lyapunov(lin.A, -lin.B @ lin.B.T)
    Q = solve_continuous_lyapunov(lin.A.T, -lin.C.T @ lin.C)
    K, L = np.linalg.cholesky(P), np.linalg.cholesky(Q)
    V, s, Uh = np.linalg.svd(K.T @ L)
    U = Uh.T
    for j in range(6):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    T_or = (1.0 / np.sqrt(s))[:, None] * (U.T @ L.T)
    T_or_inv = (K @ V) * (1.0 / np.sqrt(s))[None, :]
    A_or = (T_or @ lin.A @ T_or_inv)[:3, :3]
    worst_lin = max(
        np.abs(rom.system.A - A_or).max(),
        np.abs(rom.system.B - (T_or @ lin.B)[:3, :]).max(),
        np.abs(rom.system.C - (lin.C @ T_or_inv)[:, :3]).max(),
        np.abs(bal_lin.hsv - s).max())
    _announce(4, worst_bal <= 1e-8 and worst_inv <= 1e-8 and worst_lin <= 1e-9,
              f"balanced-diagonal error {worst_bal:.2e} (tol 1e-8), "
              f"hsv transform invariance {worst_inv:.2e} (tol 1e-8), "
              f"linear-oracle error {worst_lin:.2e} (tol 1e-9)")


def test_criterion_5_error_bound_campaign(campaign):
    """>= 100 certified output-error cases at T = 10, h = 1e-3 with zero
    violations beyond the quadrature slack; repeated-spectrum systems also
    satisfy the distinct-value bound.  Runtime target < 10 min."""
    _, result, elapsed = campaign
    cases = [c for c in result.cases
             if c["check"].startswith("error_bound") and c["certified"]]
    violations = [c for c in cases if c["violation"]]
    distinct = [c for c in result.cases if c["check"] == "error_bound_thm"]
    distinct_ok = distinct and all(c["passed"] for c in distinct)
    _announce(5, len(cases) >= 100 and not violations and distinct_ok
              and elapsed < 600.0,
              f"{len(cases)} certified cases, {len(violations)} violations, "
              f"{len(distinct)} distinct-value cases (all pass: {bool(distinct_ok)}), "
              f"campaign runtime {elapsed:.0f} s (target < 600 s)")


def test_criterion_6_energy_bound_campaign(campaign):
    """Reachability, observability (B = 0) and exponential-envelope checks:
    zero violations beyond the quadrature slack over the same seeds."""
    _, result, _ = campaign
    names = ("reach_energy", "observ_energy", "gronwall_P2")
    cases = [c for c in result.cases if c["check"] in names]
    violations = [c for c in cases if c["violation"]]
    counts = {name: sum(c["check"] == name for c in cases) for name in names}
    _announce(6, all(counts.values()) and not violations,
              f"cases {counts}, violations {len(violations)}")


def test_criterion_7_integrator_order():
    """Halving h shrinks the trajectory error by at least 12x on the scalar
    closed-form cases."""
    ratios = []
    for n1, exact in ((0.0, lambda t: 1.0 - np.exp(-t)),
                      (0.5, lambda t: 2.0 * (1.0 - np.exp(-0.5 * t)))):
        sys = BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[n1]]], [[1.0]])
        errs = []
        for h in (0.02, 0.01):
            traj = simulate(sys, [0.0], ControlSignal.constant([1.0]), 1.0, h)
            errs.append(np.abs(traj.states[:, 0] - exact(traj.grid)).max())
        ratios.append(errs[0] / errs[1])
    _announce(7, min(ratios) >= 12.0,
              f"convergence ratios {[f'{r:.1f}' for r in ratios]} (target >= 12)")


def test_criterion_8_deterministic_reports():
    """Identical seeds produce byte-identical campaign reports."""
    config = CampaignConfig(seed=77, T=1.0, h=1e-3)
    systems = [("worked-2x2", worked_2x2())] + [
        (f"random-{n}", random_ms_stable_system(n, 1, 1, np.random.default_rng([77, n])))
        for n in (2, 4)]
    a = campaign_to_json(benchmark_campaign(config, systems))
    b = campaign_to_json(benchmark_campaign(config, systems))
    _announce(8, a == b,
              f"two runs, {len(a)} bytes each, byte-identical: {a == b}")


def test_campaign_matches_the_pinned_report(campaign):
    """The acceptance campaign keeps every case, check, label and pass/fail
    of its pinned compact report, and its lhs, rhs, eps_q, summary and
    aggregates within PINNED_REL_TOL; tests/data/make_campaign_fixture.py
    rewrites the pin after a change that is meant to move them."""
    _, result, _ = campaign
    fresh = [json.loads(line) for line in
             compact_report(json.loads(campaign_to_json(result))).splitlines()]
    pinned = [json.loads(line) for line in
              PINNED_CAMPAIGN.read_text(encoding="utf-8").splitlines()]
    assert pinned[0]["summary"]["total_cases"] == len(pinned) - 1 == 834
    assert list(report_differences(pinned, fresh, PINNED_REL_TOL))[:5] == []
