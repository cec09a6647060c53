import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from bilbt import (
    BilinearSystem,
    CampaignConfig,
    ControlSignal,
    KroneckerCapError,
    PreconditionViolation,
    SimulationBlowUpError,
    benchmark_campaign,
    bounded_control_suite,
    campaign_to_csv,
    campaign_to_json,
    check_error_bound,
    check_gronwall_P2,
    check_mixed_side_conditions,
    check_observ_energy,
    check_reach_energy,
    duplicate_system,
    mixed_pair_Q1_P2,
    simulate,
    simulate_groups,
    square_root_balance,
    stability_report,
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.balancing import ReducedModel
from bilbt.kronecker import MAX_KRON_N
from bilbt.verification import _gramian_pairs, random_ms_stable_system, worked_2x2

from conftest import make_random_system, report_differences, small_campaign_systems


def _reduced(worked=None, k=1.0, r=1):
    sys = worked if worked is not None else worked_2x2()
    pair = type2_gramians(sys, k)
    bal = square_root_balance(sys, pair)
    return sys, pair, bal, truncate(bal, r)


def _pair_run(sys, rom, u, T, h=1e-3):
    """The model `sys` and `rom.system` under u from zero, in one batch."""
    (full,), (reduced,) = simulate_groups([([sys, rom.system], [u], None)], T, h)[0]
    return full, reduced


def test_error_bound_zero_input_passes():
    sys, _, _, rom = _reduced()
    u = ControlSignal.zero(1)
    thm, cor = check_error_bound(rom, *_pair_run(sys, rom, u, 2.0))
    assert thm.passed and cor.passed
    assert cor.lhs == 0.0 and cor.rhs == 0.0


def test_error_bound_identical_models_pass():
    # r = n "reduction": identical model, bound constants zero
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    bal = square_root_balance(sys, pair)
    rom = ReducedModel(system=bal.system, r=2, tail_hsv=np.array([]),
                       bound_all=0.0, bound_distinct=0.0,
                       distinct_tolerance=1e-10, gramian_kind=pair.kind,
                       k=pair.k, hsv=bal.hsv)
    u = bounded_control_suite(1, 1.0, 2.0, seed=6)[2]
    thm, cor = check_error_bound(rom, *_pair_run(sys, rom, u, 2.0))
    assert cor.rhs == 0.0
    assert cor.lhs <= cor.tolerance_used
    assert cor.passed


def test_error_bound_worked_reduction_passes():
    sys, _, _, rom = _reduced()
    suite = bounded_control_suite(1, 1.0, 5.0, seed=7)
    runs = simulate_groups([([sys, rom.system], suite, None)], 5.0, 1e-3)[0]
    for full, reduced in zip(*runs):
        thm, cor = check_error_bound(rom, full, reduced)
        assert thm.passed and cor.passed
        if cor.rhs > 0:
            assert cor.lhs / cor.rhs < 1.0


def test_error_bound_rejects_oversized_control():
    sys, _, _, rom = _reduced(k=0.5)
    u = ControlSignal.constant([1.0])
    runs = _pair_run(sys, rom, u, 1.0)
    with pytest.raises(PreconditionViolation):
        check_error_bound(rom, *runs)


def test_error_bound_rejects_runs_under_different_controls():
    sys, _, _, rom = _reduced()
    u, v = bounded_control_suite(1, 1.0, 2.0, seed=7)[1:3]
    full, _ = _pair_run(sys, rom, u, 2.0)
    _, reduced = _pair_run(sys, rom, v, 2.0)
    with pytest.raises(ValueError, match="same control"):
        check_error_bound(rom, full, reduced)


def test_error_bound_rejects_runs_on_different_grids():
    sys, _, _, rom = _reduced()
    u = ControlSignal.zero(1)
    full, _ = _pair_run(sys, rom, u, 2.0)
    _, reduced = _pair_run(sys, rom, u, 2.0, h=2e-3)
    with pytest.raises(ValueError, match="same grid"):
        check_error_bound(rom, full, reduced)


def test_mixed_conditions_reject_runs_under_different_controls():
    sys = worked_2x2()
    bal = square_root_balance(sys, mixed_pair_Q1_P2(sys))
    rom = truncate(bal, 1)
    u, v = bounded_control_suite(1, 1e-3, 2.0, seed=11)[1:3]
    full, _ = _pair_run(bal.system, rom, u, 2.0)
    _, reduced = _pair_run(bal.system, rom, v, 2.0)
    with pytest.raises(ValueError, match="same control"):
        check_mixed_side_conditions(rom, full, reduced)


def test_reach_energy_rejects_a_run_under_an_oversized_control():
    # the k = 0.5 precondition is read from the control that the run carries
    sys = worked_2x2()
    pair = type2_gramians(sys, 0.5)
    traj = simulate(sys, np.zeros(2), ControlSignal.constant([5.0]), 1.0, 1e-3)
    with pytest.raises(PreconditionViolation, match="control bound 5 exceeds"):
        check_reach_energy(pair, traj)


def test_every_check_reports_the_control_of_its_run():
    sys, pair, _, rom = _reduced(k=1.0)
    mixed = mixed_pair_Q1_P2(sys)
    bal_m = square_root_balance(sys, mixed)
    rom_m = truncate(bal_m, 1)
    u = bounded_control_suite(1, 1e-3, 1.0, seed=11)[-1]  # piecewise-0
    full, reduced = _pair_run(sys, rom, u, 1.0)
    full_m, reduced_m = _pair_run(bal_m.system, rom_m, u, 1.0)
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((2, 1)), sys.N, sys.C)
    reports = [*check_error_bound(rom, full, reduced), check_reach_energy(pair, full),
               check_observ_energy(no_b, pair, simulate(no_b, [1.0, 0.0], u, 1.0, 1e-3)),
               check_gronwall_P2(mixed.P, full),
               check_mixed_side_conditions(rom_m, full_m, reduced_m)]
    assert [rep.context["control"] for rep in reports] == ["piecewise-0"] * 6
    assert [rep.context["control_bound"] for rep in reports
            if "control_bound" in rep.context] == [u.k_bound] * 3


def test_batch_inputs_are_the_controls_on_the_grid():
    # each run carries its control, and its inputs are that control on the
    # grid bit for bit
    for m, T, h in ((1, 1.0, 1e-3), (2, 10.0, 1e-3), (3, 0.7, 3e-3)):
        suite = bounded_control_suite(m, 2.0, T, seed=m, n_sinusoids=2, n_piecewise=3)
        sys = make_random_system(m, n=2, m=m)
        for u, traj in zip(suite, simulate_groups([([sys], suite, None)], T, h)[0][0]):
            assert traj.control is u
            assert np.array_equal(traj.control(traj.grid), traj.inputs), u.label


def test_error_bound_type1_reduction_under_control():
    # the type-1 pair carries no control bound, so any control is admitted
    sys = worked_2x2()
    rom = truncate(square_root_balance(sys, type1_gramians(sys)), 1)
    u = ControlSignal.constant([1.0])
    thm, cor = check_error_bound(rom, *_pair_run(sys, rom, u, 1.0))
    assert (thm.check, cor.check) == ("error_bound_thm", "error_bound_cor")
    assert cor.context["kind"] == "type1" and cor.context["k"] == 0.0
    assert cor.lhs > 0.0
    assert cor.rhs == pytest.approx(rom.bound_all, rel=1e-6)  # ||u||_{L2_1} = 1


def test_reach_energy_zero_input():
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.zero(1)
    rep = check_reach_energy(pair, simulate(sys, np.zeros(2), u, 2.0, 1e-3))
    assert rep.passed and rep.lhs == 0.0


def test_reach_energy_scalar_case(scalar_sys):
    pair = type2_gramians(scalar_sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_reach_energy(pair, simulate(scalar_sys, [0.0], u, 5.0, 1e-3))
    assert rep.passed
    # sup |x| / sqrt(P) <= ||u||_L2 with P ~ 4/3
    assert rep.lhs <= rep.rhs


def test_reach_energy_random_property():
    sys = make_random_system(95, n=3)
    from bilbt import stability_report
    k = 0.5 * stability_report(sys).k_max_estimate
    pair = type2_gramians(sys, k)
    suite = bounded_control_suite(sys.m, k, 4.0, seed=8)
    for traj in simulate_groups([([sys], suite, None)], 4.0, 1e-3)[0][0]:
        rep = check_reach_energy(pair, traj)
        assert rep.passed


def test_observ_energy_zero_x0():
    sys = worked_2x2()
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((2, 1)), sys.N, sys.C)
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_observ_energy(no_b, pair, simulate(no_b, np.zeros(2), u, 2.0, 1e-3))
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_observ_energy_scalar_bound(scalar_sys):
    no_b = BilinearSystem.from_matrices(scalar_sys.A, [[0.0]], scalar_sys.N,
                                        scalar_sys.C)
    pair = type2_gramians(scalar_sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_observ_energy(no_b, pair, simulate(no_b, [1.0], u, 5.0, 1e-3))
    assert rep.passed
    assert rep.rhs == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert rep.lhs <= rep.rhs + rep.tolerance_used


def test_observ_energy_random_unit_sphere():
    sys = make_random_system(96, n=3, p=2)
    from bilbt import stability_report
    k = 0.4 * stability_report(sys).k_max_estimate
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((3, 1)), sys.N, sys.C)
    pair = type2_gramians(sys, k)
    rng = np.random.default_rng(96)
    for _ in range(3):
        x0 = rng.standard_normal(3)
        x0 /= np.linalg.norm(x0)
        suite = bounded_control_suite(1, k, 3.0, seed=9)[:3]
        runs = simulate_groups([([no_b], suite, [x0])], 3.0, 1e-3)[0][0]
        for traj in runs:
            rep = check_observ_energy(no_b, pair, traj)
            assert rep.passed


def test_observ_energy_rejects_nonzero_b():
    # the energy bound x0^T Q x0 is certified for B = 0 only
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.constant([0.8])
    with pytest.raises(PreconditionViolation, match="B = 0"):
        check_observ_energy(sys, pair, simulate(sys, [0.5, -0.5], u, 2.0, 1e-3))


def test_gronwall_zero_input(scalar_sys):
    P2 = type2_gramians(scalar_sys, 0.0).P
    u = ControlSignal.zero(1)
    rep = check_gronwall_P2(P2, simulate(scalar_sys, [0.0], u, 2.0, 1e-3))
    assert rep.passed


def test_gronwall_scalar_explicit(scalar_sys):
    # x(t)^2 * 1.75 <= t e^t under u = 1 (P2 ~ 4/7)
    P2 = type2_gramians(scalar_sys, 0.0).P
    traj = simulate(scalar_sys, [0.0], ControlSignal.constant([1.0]), 2.0, 1e-3)
    rep = check_gronwall_P2(P2, traj)
    assert rep.passed
    lhs = traj.states[:, 0] ** 2 / P2[0, 0]
    rhs = traj.grid * np.exp(traj.grid)
    assert np.all(lhs <= rhs + 1e-9)


def test_gronwall_unbounded_controls():
    sys = make_random_system(97, n=3)
    P2 = type2_gramians(sys, 0.0).P
    suite = bounded_control_suite(sys.m, 3.0, 3.0, seed=10)[2:]
    for traj in simulate_groups([([sys], suite, None)], 3.0, 1e-3)[0][0]:
        rep = check_gronwall_P2(P2, traj)
        assert rep.passed


def test_gronwall_coarse_integral_keeps_the_last_step_of_an_odd_grid():
    # u^2 = 1 on [0, 1] with K = 11 steps: the trapezoid rule is exact at
    # step h and at step 2h with the last interval at step h, so the
    # Richardson term of the worst point (t = 1, where x^T P2^-1 x outgrows
    # t e^t) is rounding only
    sys = BilinearSystem.from_matrices([[1.0]], [[1.0]], [[[0.0]]], [[1.0]])
    traj = simulate(sys, [0.0], ControlSignal.constant([1.0]), 1.0, 1.0 / 11)
    assert traj.grid.size == 12
    rep = check_gronwall_P2(np.array([[0.01]]), traj)
    assert rep.context["worst_time"] == 1.0
    assert rep.rhs == pytest.approx(np.e, rel=1e-12)
    assert rep.tolerance_used < 1e-6


def test_mixed_conditions_zero_input():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = ControlSignal.zero(1)
    rep = check_mixed_side_conditions(rom, *_pair_run(bal.system, rom, u, 2.0))
    assert rep.passed


def test_mixed_conditions_small_control_holds():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = bounded_control_suite(1, 1e-3, 4.0, seed=11)[2]
    runs = _pair_run(bal.system, rom, u, 4.0)
    rep = check_mixed_side_conditions(rom, *runs)
    assert rep.passed
    # the conditions hold, so the error bound applies; its one judge is
    # check_error_bound, on the same runs
    cor = check_error_bound(rom, *runs)[1]
    assert cor.passed and cor.context["kind"] == "mixed_Q1_P2"


def test_mixed_conditions_large_control_flagged():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = bounded_control_suite(1, 8.0, 4.0, seed=12)[1]
    rep = check_mixed_side_conditions(rom, *_pair_run(bal.system, rom, u, 4.0))
    assert not rep.passed  # conditions flagged false; bound not certified here


def test_repeated_hsv_distinct_bound_engaged():
    base = random_ms_stable_system(2, 1, 1, np.random.default_rng(98))
    double = duplicate_system(base)
    from bilbt import stability_report
    k = 0.4 * stability_report(double).k_max_estimate
    pair = type2_gramians(double, k)
    bal = square_root_balance(double, pair)
    # spectra come in exact pairs
    assert bal.hsv[0] == pytest.approx(bal.hsv[1], rel=1e-8)
    assert bal.hsv[2] == pytest.approx(bal.hsv[3], rel=1e-8)
    rom = truncate(bal, 2)
    assert rom.bound_distinct < rom.bound_all * (1.0 - 1e-9)
    u = bounded_control_suite(double.m, k, 4.0, seed=13)[2]
    thm, cor = check_error_bound(rom, *_pair_run(double, rom, u, 4.0))
    assert thm.passed and cor.passed
    assert thm.rhs < cor.rhs


def test_empty_campaign():
    result = benchmark_campaign(CampaignConfig(), [])
    assert result.cases == []
    assert result.summary["total_cases"] == 0


def test_small_campaign_no_certified_violations():
    cfg = CampaignConfig(seed=5, T=1.0, h=1e-3)
    result = benchmark_campaign(cfg, small_campaign_systems(5))
    assert result.summary["scored_cases"] > 20
    assert result.summary["certified_violations"] == 0
    assert result.summary["certified_hard_failures"] == 0


def test_campaign_skips_a_one_state_system():
    # n = 1 leaves no order to truncate: one skip, and the other systems of
    # the campaign keep their cases
    cfg = CampaignConfig(seed=1, T=0.2, h=2e-3)
    scalar = ("scalar", BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.5]]], [[1.0]]))
    alone = benchmark_campaign(cfg, [scalar])
    assert [(c["system"], c["note"]) for c in alone.cases] == [
        ("scalar", "skipped: n = 1: no order to truncate")]
    assert alone.summary["skipped"] == 1
    worked = ("worked-2x2", worked_2x2())
    beside = benchmark_campaign(cfg, [worked, scalar]).cases
    assert [c for c in beside if c["system"] == "worked-2x2"] \
        == benchmark_campaign(cfg, [worked]).cases


def test_campaign_deterministic_by_seed():
    cfg = CampaignConfig(seed=9, T=1.0, h=2e-3)
    a = campaign_to_json(benchmark_campaign(cfg, small_campaign_systems(9)))
    b = campaign_to_json(benchmark_campaign(cfg, small_campaign_systems(9)))
    assert a == b


def test_campaign_csv_table():
    cfg = CampaignConfig(seed=5, T=1.0, h=2e-3)
    result = benchmark_campaign(cfg, [("worked-2x2", worked_2x2())])
    csv_text = campaign_to_csv(result)
    header, *rows = csv_text.strip().splitlines()
    assert header.startswith("case,system,kind")
    assert len(rows) == sum(c["check"].startswith("error_bound") for c in result.cases)


PINNED_CAMPAIGN = Path(__file__).parent / "data" / "campaign_seed5.json"
PINNED_REL_TOL = 1e-10


def test_campaign_report_matches_the_pinned_report():
    # a refactor of the campaign keeps every case, check, label and pass/fail
    # and every number to rounding; tests/data/make_campaign_fixture.py
    # rewrites the report after a change that is meant to move them
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    fresh = json.loads(campaign_to_json(benchmark_campaign(cfg, small_campaign_systems(5))))
    pinned = json.loads(PINNED_CAMPAIGN.read_text(encoding="utf-8"))
    assert pinned["summary"]["total_cases"] == 106
    assert list(report_differences(pinned, fresh, PINNED_REL_TOL))[:5] == []


def test_campaign_k_column_is_the_reductions_control_bound():
    # k is the bound the pair was built for, on every case: 0 for the pairs
    # of the unshifted drift, whatever control a side-condition case ran
    # under (that one is in control_bound)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    cases = benchmark_campaign(cfg, small_campaign_systems(5)).cases
    unshifted = [c for c in cases if c["kind"] in ("mixed_Q1_P2", "type1")
                 or c["check"] == "gronwall_P2"]
    assert {c["check"] for c in unshifted} == {"error_bound_cor", "gronwall_P2",
                                               "mixed_side_conditions"}
    assert [c for c in unshifted if c["k"] != 0.0] == []
    assert any(c["control_bound"] > 0.0 for c in unshifted
               if c["check"] == "mixed_side_conditions")


def test_campaign_mixed_error_cases_are_check_error_bound_reports(monkeypatch):
    # where the side conditions of the mixed pair hold, the certified error
    # case is the error-bound check of the very runs they judged
    import bilbt.verification
    judged = []
    conditions = bilbt.verification.check_mixed_side_conditions

    def recording(rom, full, reduced):
        rep = conditions(rom, full, reduced)
        if rep.passed:
            judged.append(check_error_bound(rom, full, reduced)[1])
        return rep

    monkeypatch.setattr(bilbt.verification, "check_mixed_side_conditions", recording)
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: 1)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    cases = [case for case in benchmark_campaign(cfg, small_campaign_systems(5)).cases
             if case["note"] == "mixed pair under small control"]
    assert len(cases) == len(judged) == 6
    for case, rep in zip(cases, judged):
        assert (case["check"], case["kind"], case["k"]) == ("error_bound_cor", "mixed_Q1_P2", 0.0)
        assert (case["lhs"], case["rhs"], case["eps_q"]) \
            == (rep.lhs, rep.rhs, rep.tolerance_used)


def _count_calls_to_file(monkeypatch, module, name, path):
    """Wrap `module.name` so that every call, in this process or in a forked
    campaign worker, appends the n of its system argument to `path`."""
    original = getattr(module, name)

    def counting(sys, *args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{sys.n}\n")
        return original(sys, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _counted(path):
    return [int(line) for line in path.read_text(encoding="utf-8").split()] \
        if path.exists() else []


def test_campaign_solves_p2_once_per_system(monkeypatch, tmp_path):
    # the Gronwall checks and the mixed pair share one solve of (P2, Q1);
    # the solves run in worker processes, so the calls are counted in a file
    import bilbt.verification
    log = tmp_path / "calls.txt"
    _count_calls_to_file(monkeypatch, bilbt.verification, "_mixed_pair", log)
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    checks = {c["check"] for c in benchmark_campaign(cfg, small_campaign_systems(5)).cases}
    assert {"gronwall_P2", "mixed_side_conditions"} <= checks
    calls = _counted(log)
    assert sorted(calls) == [2, 3]  # worked-2x2 and random-3, once each


def test_campaign_samples_each_control_only_in_the_integrator(monkeypatch, tmp_path):
    # a run carries its control and its samples, so the checks sample no
    # control again: every evaluation, in this process or in a worker, is
    # the integrator's, on the half-step grid of 2K + 1 points
    import bilbt.verification
    log = tmp_path / "calls.txt"
    original = ControlSignal.__call__

    def recording(self, t):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{np.size(t)} {np.array_equal(t, half_grid):d}\n")
        return original(self, t)

    monkeypatch.setattr(ControlSignal, "__call__", recording)
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    half_grid = np.linspace(0.0, cfg.T, 2 * 100 + 1)
    benchmark_campaign(cfg, small_campaign_systems(5))
    calls = log.read_text(encoding="utf-8").splitlines()
    assert calls and set(calls) == {"201 1"}


def test_campaign_factors_three_operators_per_system(monkeypatch):
    # type 2 at two k, one LU factorization each, and one of (A, N) for the
    # (P2, Q1) pair and the type-1 baseline, which shares its Q1's factors
    import bilbt.matrix_equations
    import bilbt.verification
    factored = []
    dgetrf = bilbt.matrix_equations.dgetrf
    monkeypatch.setattr(bilbt.matrix_equations, "dgetrf",
                        lambda K: factored.append(K.shape) or dgetrf(K))
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: 1)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    benchmark_campaign(cfg, small_campaign_systems(5)[:1])
    assert factored == [(3, 3)] * 3


@pytest.mark.parametrize("label, zero_B", [("worked-2x2", False), ("random-3", False),
                                           ("random-3", True)])
def test_campaign_pairs_equal_the_stand_alone_pairs(label, zero_B):
    # the campaign's planner shares one factored (A, N) operator between the
    # mixed pair and the type-1 pair; each pair is the one its public
    # function solves on its own, bit for bit
    sys = dict(small_campaign_systems(5))[label]
    if zero_B:
        sys = BilinearSystem.from_matrices(sys.A, np.zeros_like(sys.B), sys.N, sys.C)
    k = 0.4 * stability_report(sys).k_max_estimate
    (type2,), mixed, type1 = _gramian_pairs(sys, [k], None)
    for shared, alone in ((type2, type2_gramians(sys, k)), (mixed, mixed_pair_Q1_P2(sys)),
                          (type1, type1_gramians(sys))):
        assert np.array_equal(shared.P, alone.P) and np.array_equal(shared.Q, alone.Q)
        assert (shared.kind, shared.k, shared.diagnostics, shared.delta,
                shared.lmi_margin, shared.minimal) == (
            alone.kind, alone.k, alone.diagnostics, alone.delta,
            alone.lmi_margin, alone.minimal)


def _stage_of(case):
    if case["check"] in ("gronwall_P2", "mixed_side_conditions") \
            or case["note"] == "mixed pair under small control":
        return "p2"
    return "type1" if case["note"] == "no certified bound" else "type2"


@pytest.mark.parametrize("stage, target, skips", [
    ("type2", "_type2_pair", ["error_bound_cor", "error_bound_cor"]),
    ("p2", "_mixed_pair", ["gronwall_P2", "mixed_side_conditions"]),
    ("type1", "_type1_pair", ["error_bound_cor"]),
])
def test_campaign_logs_a_failed_stage_in_its_place(monkeypatch, stage, target, skips):
    # a stage whose solve fails logs its skips where its cases would have
    # been; with no type-2 reduction the later stages are not planned at all
    import bilbt.verification
    from bilbt import MatrixEquationError
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: 1)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    systems = small_campaign_systems(5)
    expected, replaced = [], set()
    for case in benchmark_campaign(cfg, systems).cases:
        if stage == "type2" or _stage_of(case) == stage:
            if case["system"] not in replaced:
                replaced.add(case["system"])
                expected += [(case["system"], check) for check in skips]
        else:
            expected.append((case["system"], case["check"]))

    def fail(*args, **kwargs):
        raise MatrixEquationError("solve failed")

    monkeypatch.setattr(bilbt.verification, target, fail)
    cases = benchmark_campaign(cfg, systems).cases
    assert [(case["system"], case["check"]) for case in cases] == expected
    assert sum(case["note"].startswith("skipped") for case in cases) \
        == len(skips) * len(systems)


def _pool_campaign_systems():
    rng = np.random.default_rng(41)
    return small_campaign_systems(5) + [
        ("random-5", random_ms_stable_system(5, 1, 2, rng)),
        ("random-2", random_ms_stable_system(2, 2, 2, rng))]


def _oversized_system():
    n = MAX_KRON_N + 1
    return BilinearSystem.from_matrices(-np.eye(n), np.ones((n, 1)),
                                        [0.1 * np.eye(n)], np.ones((1, n)))


def test_campaign_pool_reports_match_a_serial_run(monkeypatch):
    import bilbt.verification
    cfg = CampaignConfig(seed=5, T=0.3, h=2e-3)
    systems = _pool_campaign_systems()
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    pooled = benchmark_campaign(cfg, systems)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: 1)
    serial = benchmark_campaign(cfg, systems)
    assert [c["case"] for c in pooled.cases] == list(range(len(pooled.cases)))
    assert {c["system"] for c in pooled.cases} == {label for label, _ in systems}
    assert campaign_to_json(pooled) == campaign_to_json(serial)
    assert campaign_to_csv(pooled) == campaign_to_csv(serial)


def _blow_up(*args, **kwargs):
    raise SimulationBlowUpError("state became non-finite at step 7 (t = 0.014)",
                                step=7, time=0.014)


@pytest.mark.parametrize("failure", ["oversized", "blow-up"])
def test_campaign_worker_exception_matches_a_serial_run(monkeypatch, failure):
    import bilbt.verification
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    systems = _pool_campaign_systems()
    if failure == "oversized":
        systems.insert(2, ("too-large", _oversized_system()))
        expected = KroneckerCapError
    else:
        monkeypatch.setattr(bilbt.verification, "simulate_groups", _blow_up)
        expected = SimulationBlowUpError
    errors = []
    for workers in (2, 1):
        monkeypatch.setattr(bilbt.verification, "_worker_count",
                            lambda n, w=workers: min(n, w))
        with pytest.raises(expected) as info:
            benchmark_campaign(cfg, systems)
        assert multiprocessing.active_children() == []
        errors.append(info.value)
    pooled, serial = errors
    assert type(pooled) is type(serial)
    assert str(pooled) == str(serial) and pooled.args == serial.args
    assert vars(pooled) == vars(serial)


def test_campaign_cancels_the_systems_after_a_failing_one(monkeypatch, tmp_path):
    import bilbt.verification
    log = tmp_path / "calls.txt"
    _count_calls_to_file(monkeypatch, bilbt.verification, "stability_report", log)
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    rng = np.random.default_rng(43)
    others = [(f"random-{i}", random_ms_stable_system(6, 1, 1, rng)) for i in range(12)]
    cfg = CampaignConfig(seed=5, T=1.0, h=1e-3)
    with pytest.raises(KroneckerCapError):
        benchmark_campaign(cfg, [("too-large", _oversized_system())] + others)
    assert multiprocessing.active_children() == []
    calls = _counted(log)
    assert calls.count(MAX_KRON_N + 1) == 1
    assert len(calls) < 1 + len(others)  # the queued systems ran, the rest did not
