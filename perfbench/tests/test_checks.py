"""Each correctness check of the benchmark passes on the program's output and
fails on a corrupted copy of it."""

import dataclasses

import numpy as np

import bilbt
import checks
import models
import workloads


def _scalar():
    return bilbt.system.system_from_dict(models.scalar_system())


def test_scaled_down_P_fails_lmi_check():
    sys = _scalar()
    pair = bilbt.type2_gramians(sys, 1.0)
    arrays = (sys.A, sys.B, list(sys.N))
    assert checks.lmi_largest_eigenvalue(*arrays, 1.0, pair.P) <= checks.LMI_TOL
    assert checks.lmi_largest_eigenvalue(*arrays, 1.0, 0.9 * pair.P) > checks.LMI_TOL


def test_halved_bound_constant_fails_error_bound_check():
    system = models.random_system(4, 1, 1, np.random.default_rng(3))
    sys = bilbt.system.system_from_dict(system)
    k = 0.5 * models.k_max(system)
    pair = bilbt.type2_gramians(sys, k)
    bal = bilbt.square_root_balance(sys, pair)
    rom = bilbt.truncate(bal, 2)
    case = {"label": "random-4"}
    arrays = models.arrays(system)
    assert checks.check_reduction(case, arrays, pair, bal, rom) == []
    halved = dataclasses.replace(rom, bound_all=0.5 * rom.bound_all)
    problems = checks.check_reduction(case, arrays, pair, bal, halved)
    assert any("bound constant" in p for p in problems)


def test_scalar_closed_forms_reject_a_wrong_gramian():
    sys = _scalar()
    pairs = [bilbt.type1_gramians(sys), bilbt.type2_gramians(sys, 1.0)]
    assert checks.check_scalar(pairs) == []
    wrong = dataclasses.replace(pairs[0], Q=pairs[0].Q * (1 + 1e-8))
    assert checks.check_scalar([wrong, pairs[1]])


def test_perturbed_trajectory_fails_reference_comparison():
    system = models.heat_system(64)
    A, B, N, C = models.arrays(system)
    x0 = models.smooth_profile(64, np.random.default_rng(1))
    params = models.sinusoid_params(2, workloads.WIDE_K, np.random.default_rng(2))
    traj = bilbt.simulate(bilbt.system.system_from_dict(system), x0,
                          bilbt.ControlSignal.sinusoid_bank(*params), 0.2,
                          workloads.WIDE_H)
    ref = checks.integrate(A, B, N, x0, params, 0.2, traj.grid) @ C.T
    assert checks.check_trajectory(traj.outputs, ref, workloads.WIDE_TOL)[1]
    assert not checks.check_trajectory(traj.outputs + 1e-6, ref, workloads.WIDE_TOL)[1]


def _report(cases):
    return {"summary": {"certified_violations": sum(not c["passed"] for c in cases),
                        "certified_hard_failures": 0, "skipped": 0},
            "cases": cases}


def _case(i, lhs, rhs):
    return {"case": i, "check": "error_bound_cor", "certified": True,
            "lhs": lhs, "rhs": rhs, "eps_q": 1e-9, "passed": lhs <= rhs + 1e-9}


def test_report_with_certified_violation_is_rejected():
    cases = [_case(i, 0.1, 1.0) for i in range(checks.MIN_CERTIFIED_BOUND_CASES)]
    assert checks.check_campaign_report(_report(cases)) == []
    cases[7] = _case(7, 1.5, 1.0)
    problems = checks.check_campaign_report(_report(cases))
    assert any("certified_violations" in p for p in problems)
    assert any("campaign case 7" in p for p in problems)


def test_report_with_too_few_bound_cases_is_rejected():
    cases = [_case(i, 0.1, 1.0) for i in range(checks.MIN_CERTIFIED_BOUND_CASES - 1)]
    assert checks.check_campaign_report(_report(cases))
