import numpy as np
import pytest

from bilbt import (
    BilinearSystem,
    CampaignConfig,
    ControlSignal,
    PreconditionViolation,
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
    simulate_batch,
    square_root_balance,
    stochastic_type2_P2,
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.balancing import ReducedModel
from bilbt.verification import random_ms_stable_system, worked_2x2

from conftest import make_random_system, small_campaign_systems


def _reduced(worked=None, k=1.0, r=1):
    sys = worked if worked is not None else worked_2x2()
    pair = type2_gramians(sys, k)
    bal = square_root_balance(sys, pair)
    return sys, pair, bal, truncate(bal, r)


def _pair_run(sys, rom, u, T, h=1e-3):
    """The model `sys` and `rom.system` under u from zero, in one batch."""
    (full,), (reduced,) = simulate_batch([sys, rom.system], [u], T, h)
    return full, reduced


def test_error_bound_zero_input_passes():
    sys, _, _, rom = _reduced()
    u = ControlSignal.zero(1)
    thm, cor = check_error_bound(rom, u, *_pair_run(sys, rom, u, 2.0))
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
    thm, cor = check_error_bound(rom, u, *_pair_run(sys, rom, u, 2.0))
    assert cor.rhs == 0.0
    assert cor.lhs <= cor.tolerance_used
    assert cor.passed


def test_error_bound_worked_reduction_passes():
    sys, _, _, rom = _reduced()
    suite = bounded_control_suite(1, 1.0, 5.0, seed=7)
    for u, full, reduced in zip(suite, *simulate_batch([sys, rom.system], suite, 5.0, 1e-3)):
        thm, cor = check_error_bound(rom, u, full, reduced)
        assert thm.passed and cor.passed
        if cor.rhs > 0:
            assert cor.lhs / cor.rhs < 1.0


def test_error_bound_rejects_oversized_control():
    sys, _, _, rom = _reduced(k=0.5)
    u = ControlSignal.constant([1.0])
    runs = _pair_run(sys, rom, u, 1.0)
    with pytest.raises(PreconditionViolation):
        check_error_bound(rom, u, *runs)


def test_error_bound_rejects_runs_under_different_controls():
    sys, _, _, rom = _reduced()
    u, v = bounded_control_suite(1, 1.0, 2.0, seed=7)[1:3]
    full, _ = _pair_run(sys, rom, u, 2.0)
    _, reduced = _pair_run(sys, rom, v, 2.0)
    with pytest.raises(ValueError, match="same control"):
        check_error_bound(rom, u, full, reduced)


def test_error_bound_rejects_runs_on_different_grids():
    sys, _, _, rom = _reduced()
    u = ControlSignal.zero(1)
    full, _ = _pair_run(sys, rom, u, 2.0)
    _, reduced = _pair_run(sys, rom, u, 2.0, h=2e-3)
    with pytest.raises(ValueError, match="same grid"):
        check_error_bound(rom, u, full, reduced)


def test_mixed_conditions_reject_runs_under_different_controls():
    sys = worked_2x2()
    bal = square_root_balance(sys, mixed_pair_Q1_P2(sys))
    rom = truncate(bal, 1)
    u, v = bounded_control_suite(1, 1e-3, 2.0, seed=11)[1:3]
    full, _ = _pair_run(bal.system, rom, u, 2.0)
    _, reduced = _pair_run(bal.system, rom, v, 2.0)
    with pytest.raises(ValueError, match="same control"):
        check_mixed_side_conditions(rom, u, full, reduced)


def test_error_bound_type1_reduction_under_control():
    # the type-1 pair carries no control bound, so any control is admitted
    sys = worked_2x2()
    rom = truncate(square_root_balance(sys, type1_gramians(sys)), 1)
    u = ControlSignal.constant([1.0])
    thm, cor = check_error_bound(rom, u, *_pair_run(sys, rom, u, 1.0))
    assert (thm.check, cor.check) == ("error_bound_thm", "error_bound_cor")
    assert cor.context["kind"] == "type1" and cor.context["k"] == 0.0
    assert cor.lhs > 0.0
    assert cor.rhs == pytest.approx(rom.bound_all, rel=1e-6)  # ||u||_{L2_1} = 1


def test_reach_energy_zero_input():
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.zero(1)
    rep = check_reach_energy(pair, u, simulate(sys, np.zeros(2), u, 2.0, 1e-3))
    assert rep.passed and rep.lhs == 0.0


def test_reach_energy_scalar_case(scalar_sys):
    pair = type2_gramians(scalar_sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_reach_energy(pair, u, simulate(scalar_sys, [0.0], u, 5.0, 1e-3))
    assert rep.passed
    # sup |x| / sqrt(P) <= ||u||_L2 with P ~ 4/3
    assert rep.lhs <= rep.rhs


def test_reach_energy_random_property():
    sys = make_random_system(95, n=3)
    from bilbt import stability_report
    k = 0.5 * stability_report(sys).k_max_estimate
    pair = type2_gramians(sys, k)
    suite = bounded_control_suite(sys.m, k, 4.0, seed=8)
    for u, traj in zip(suite, simulate_batch([sys], suite, 4.0, 1e-3)[0]):
        rep = check_reach_energy(pair, u, traj)
        assert rep.passed


def test_observ_energy_zero_x0():
    sys = worked_2x2()
    no_b = BilinearSystem.from_matrices(sys.A, np.zeros((2, 1)), sys.N, sys.C)
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_observ_energy(no_b, pair, u, simulate(no_b, np.zeros(2), u, 2.0, 1e-3))
    assert rep.passed and rep.lhs == 0.0
    assert not rep.context["informational"]


def test_observ_energy_scalar_bound(scalar_sys):
    no_b = BilinearSystem.from_matrices(scalar_sys.A, [[0.0]], scalar_sys.N,
                                        scalar_sys.C)
    pair = type2_gramians(scalar_sys, 1.0)
    u = ControlSignal.constant([1.0])
    rep = check_observ_energy(no_b, pair, u, simulate(no_b, [1.0], u, 5.0, 1e-3))
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
        for u, traj in zip(suite, simulate_batch([no_b], suite, 3.0, 1e-3, x0=[x0])[0]):
            rep = check_observ_energy(no_b, pair, u, traj)
            assert rep.passed


def test_observ_energy_nonzero_b_informational():
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.constant([0.8])
    rep = check_observ_energy(sys, pair, u, simulate(sys, [0.5, -0.5], u, 2.0, 1e-3))
    assert rep.context["informational"]


def test_gronwall_zero_input(scalar_sys):
    P2, _, _ = stochastic_type2_P2(scalar_sys)
    u = ControlSignal.zero(1)
    rep = check_gronwall_P2(P2, u, simulate(scalar_sys, [0.0], u, 2.0, 1e-3))
    assert rep.passed


def test_gronwall_scalar_explicit(scalar_sys):
    # x(t)^2 * 1.75 <= t e^t under u = 1 (P2 ~ 4/7)
    P2, _, _ = stochastic_type2_P2(scalar_sys)
    traj = simulate(scalar_sys, [0.0], ControlSignal.constant([1.0]), 2.0, 1e-3)
    rep = check_gronwall_P2(P2, ControlSignal.constant([1.0]), traj)
    assert rep.passed
    lhs = traj.states[:, 0] ** 2 / P2[0, 0]
    rhs = traj.grid * np.exp(traj.grid)
    assert np.all(lhs <= rhs + 1e-9)


def test_gronwall_unbounded_controls():
    sys = make_random_system(97, n=3)
    P2, _, _ = stochastic_type2_P2(sys)
    suite = bounded_control_suite(sys.m, 3.0, 3.0, seed=10)[2:]
    for u, traj in zip(suite, simulate_batch([sys], suite, 3.0, 1e-3)[0]):
        rep = check_gronwall_P2(P2, u, traj)
        assert rep.passed


def test_mixed_conditions_zero_input():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = ControlSignal.zero(1)
    rep = check_mixed_side_conditions(rom, u, *_pair_run(bal.system, rom, u, 2.0))
    assert rep.passed


def test_mixed_conditions_small_control_holds():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = bounded_control_suite(1, 1e-3, 4.0, seed=11)[2]
    rep = check_mixed_side_conditions(rom, u, *_pair_run(bal.system, rom, u, 4.0))
    assert rep.passed
    assert rep.context["error_within_bound"]


def test_mixed_conditions_large_control_flagged():
    sys = worked_2x2()
    pair = mixed_pair_Q1_P2(sys)
    bal = square_root_balance(sys, pair)
    rom = truncate(bal, 1)
    u = bounded_control_suite(1, 8.0, 4.0, seed=12)[1]
    rep = check_mixed_side_conditions(rom, u, *_pair_run(bal.system, rom, u, 4.0))
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
    thm, cor = check_error_bound(rom, u, *_pair_run(double, rom, u, 4.0))
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


def test_campaign_solves_p2_once_per_system(monkeypatch):
    # the Gronwall checks and the mixed pair share one P2 solve
    import bilbt.gramians
    import bilbt.verification
    calls = []
    solve = bilbt.gramians.stochastic_type2_P2

    def counting(sys, *args, **kwargs):
        calls.append(sys.n)
        return solve(sys, *args, **kwargs)

    monkeypatch.setattr(bilbt.gramians, "stochastic_type2_P2", counting)
    monkeypatch.setattr(bilbt.verification, "stochastic_type2_P2", counting)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    checks = {c["check"] for c in benchmark_campaign(cfg, small_campaign_systems(5)).cases}
    assert {"gronwall_P2", "mixed_side_conditions"} <= checks
    assert sorted(calls) == [2, 3]  # worked-2x2 and random-3, once each
