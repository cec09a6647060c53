import multiprocessing

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
    truncate,
    type1_gramians,
    type2_gramians,
)
from bilbt.balancing import ReducedModel
from bilbt.kronecker import MAX_KRON_N
from bilbt.verification import random_ms_stable_system, worked_2x2

from conftest import make_random_system, small_campaign_systems


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
    runs = simulate_groups([([sys, rom.system], suite, None)], 5.0, 1e-3)[0]
    for u, full, reduced in zip(suite, *runs):
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


def test_reach_energy_rejects_a_run_under_another_control():
    # judged as constant([0.1]), a run made under constant([5.0]) would pass
    # the k = 0.5 precondition that the true control fails
    sys = worked_2x2()
    pair = type2_gramians(worked_2x2(), 0.5)
    traj = simulate(sys, np.zeros(2), ControlSignal.constant([5.0]), 1.0, 1e-3)
    with pytest.raises(PreconditionViolation):
        check_reach_energy(pair, ControlSignal.constant([5.0]), traj)
    with pytest.raises(ValueError, match="not made under the control 'constant'"):
        check_reach_energy(type2_gramians(worked_2x2(), 0.5), ControlSignal.constant([0.1]), traj)


def test_every_check_rejects_a_run_under_another_control():
    sys, pair, _, rom = _reduced(k=1.0)
    mixed = mixed_pair_Q1_P2(sys)
    P2 = mixed.P
    bal_m = square_root_balance(sys, mixed)
    rom_m = truncate(bal_m, 1)
    suite = bounded_control_suite(1, 1e-3, 1.0, seed=11)
    u, v = suite[2], suite[-1]  # a sinusoid and the piecewise-constant signal
    full, reduced = _pair_run(sys, rom, u, 1.0)
    full_m, reduced_m = _pair_run(bal_m.system, rom_m, u, 1.0)
    free = simulate(sys, [1.0, 0.0], u, 1.0, 1e-3)
    calls = [lambda w: check_error_bound(rom, w, full, reduced),
             lambda w: check_reach_energy(pair, w, full),
             lambda w: check_observ_energy(sys, pair, w, free),
             lambda w: check_gronwall_P2(P2, w, full),
             lambda w: check_mixed_side_conditions(rom_m, w, full_m, reduced_m)]
    for call in calls:
        call(u)
        with pytest.raises(ValueError, match="not made under the control 'piecewise-0'"):
            call(v)


def test_batch_inputs_are_the_controls_on_the_grid():
    # the checks compare u(traj.grid) with traj.inputs bit for bit
    for m, T, h in ((1, 1.0, 1e-3), (2, 10.0, 1e-3), (3, 0.7, 3e-3)):
        suite = bounded_control_suite(m, 2.0, T, seed=m, n_sinusoids=2, n_piecewise=3)
        sys = make_random_system(m, n=2, m=m)
        for u, traj in zip(suite, simulate_groups([([sys], suite, None)], T, h)[0][0]):
            assert np.array_equal(u(traj.grid), traj.inputs), u.label


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
    for u, traj in zip(suite, simulate_groups([([sys], suite, None)], 4.0, 1e-3)[0][0]):
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
        runs = simulate_groups([([no_b], suite, [x0])], 3.0, 1e-3)[0][0]
        for u, traj in zip(suite, runs):
            rep = check_observ_energy(no_b, pair, u, traj)
            assert rep.passed


def test_observ_energy_nonzero_b_informational():
    sys = worked_2x2()
    pair = type2_gramians(sys, 1.0)
    u = ControlSignal.constant([0.8])
    rep = check_observ_energy(sys, pair, u, simulate(sys, [0.5, -0.5], u, 2.0, 1e-3))
    assert rep.context["informational"]


def test_gronwall_zero_input(scalar_sys):
    P2 = type2_gramians(scalar_sys, 0.0).P
    u = ControlSignal.zero(1)
    rep = check_gronwall_P2(P2, u, simulate(scalar_sys, [0.0], u, 2.0, 1e-3))
    assert rep.passed


def test_gronwall_scalar_explicit(scalar_sys):
    # x(t)^2 * 1.75 <= t e^t under u = 1 (P2 ~ 4/7)
    P2 = type2_gramians(scalar_sys, 0.0).P
    traj = simulate(scalar_sys, [0.0], ControlSignal.constant([1.0]), 2.0, 1e-3)
    rep = check_gronwall_P2(P2, ControlSignal.constant([1.0]), traj)
    assert rep.passed
    lhs = traj.states[:, 0] ** 2 / P2[0, 0]
    rhs = traj.grid * np.exp(traj.grid)
    assert np.all(lhs <= rhs + 1e-9)


def test_gronwall_unbounded_controls():
    sys = make_random_system(97, n=3)
    P2 = type2_gramians(sys, 0.0).P
    suite = bounded_control_suite(sys.m, 3.0, 3.0, seed=10)[2:]
    for u, traj in zip(suite, simulate_groups([([sys], suite, None)], 3.0, 1e-3)[0][0]):
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
    import bilbt.gramians
    import bilbt.verification
    log = tmp_path / "calls.txt"
    _count_calls_to_file(monkeypatch, bilbt.gramians, "mixed_pair_Q1_P2", log)
    monkeypatch.setattr(bilbt.verification, "mixed_pair_Q1_P2",
                        bilbt.gramians.mixed_pair_Q1_P2)
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    checks = {c["check"] for c in benchmark_campaign(cfg, small_campaign_systems(5)).cases}
    assert {"gronwall_P2", "mixed_side_conditions"} <= checks
    calls = _counted(log)
    assert sorted(calls) == [2, 3]  # worked-2x2 and random-3, once each


def test_campaign_factors_four_operators_per_system(monkeypatch):
    # type 2 at two k, the (P2, Q1) pair, and the type-1 baseline: one LU
    # factorization each, the mixed pair's Q1 from its P2's factors
    import bilbt.matrix_equations
    import bilbt.verification
    factored = []
    dgetrf = bilbt.matrix_equations.dgetrf
    monkeypatch.setattr(bilbt.matrix_equations, "dgetrf",
                        lambda K: factored.append(K.shape) or dgetrf(K))
    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: 1)
    cfg = CampaignConfig(seed=5, T=0.2, h=2e-3)
    benchmark_campaign(cfg, small_campaign_systems(5)[:1])
    assert factored == [(3, 3)] * 4


def _stage_of(case):
    if case["check"] in ("gronwall_P2", "mixed_side_conditions") \
            or case["note"] == "mixed pair under small control":
        return "p2"
    return "type1" if case["note"] == "no certified bound" else "type2"


@pytest.mark.parametrize("stage, target, skips", [
    ("type2", "type2_gramians", ["error_bound_cor", "error_bound_cor"]),
    ("p2", "mixed_pair_Q1_P2", ["gronwall_P2", "mixed_side_conditions"]),
    ("type1", "type1_gramians", ["error_bound_cor"]),
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
