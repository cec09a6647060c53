import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from bilbt import (
    BilinearSystem,
    CampaignConfig,
    benchmark_campaign,
    load_system,
    save_system,
    square_root_balance,
    stability_report,
    type2_gramians,
)
from bilbt.cli import main
from bilbt.kronecker import MAX_KRON_N
from bilbt.verification import (
    K_FRACTIONS,
    _campaign_orders,
    build_campaign_systems,
    worked_2x2,
)

from conftest import make_random_system, small_campaign_systems


@pytest.fixture
def sys_file(tmp_path):
    path = tmp_path / "worked.json"
    save_system(worked_2x2(), path)
    return path


def test_validate_ok(sys_file, capsys):
    code = main(["validate", "--input", str(sys_file)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"]
    assert out["stability"]["hurwitz"]


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "m": 1,')
    code = main(["validate", "--input", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 3


def test_validate_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    data = {"n": 2, "m": 1, "p": 1, "A": [[-1.0, 0.0], [0.0, -2.0]],
            "B": [[1.0], [0.0], [0.0]], "N": [[[0.0, 0.0], [0.0, 0.0]]],
            "C": [[1.0, 0.0]]}
    path.write_text(json.dumps(data))
    code = main(["validate", "--input", str(path)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"]
    assert any("B has shape" in issue for issue in out["issues"])


# files that load but break a model invariant: an input without its coupling
# matrix, and two inputs over a one-column B
INVALID_SYSTEMS = {
    "no-coupling": {"n": 2, "m": 1, "p": 1, "A": [[-1.0, 0.0], [0.0, -2.0]],
                    "B": [[1.0], [0.0]], "N": [], "C": [[1.0, 0.0]]},
    "short-B": {"n": 2, "m": 2, "p": 1, "A": [[-1.0, 0.0], [0.0, -2.0]],
                "B": [[1.0], [0.0]], "N": [[[0.0, 0.0], [0.0, 0.0]]] * 2,
                "C": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("name", sorted(INVALID_SYSTEMS))
@pytest.mark.parametrize("command", [
    ["gramians", "--kind", "type1"], ["gramians", "--kind", "mixed"],
    ["reduce", "--kind", "type2", "--order", "1"],
    ["reduce", "--kind", "mixed", "--order", "1"],
    ["simulate"], ["verify", "--kind", "type2"],
])
def test_every_command_rejects_an_invalid_system(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INVALID_SYSTEMS[name]))
    assert main(command + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("invalid system: ")
    assert "Traceback" not in captured.err


def test_validate_huge_decay_rate(tmp_path, capsys):
    # sqrt(-ms_abscissa) = 1.4e8: float spacing of k above 1e-8, where a
    # bisection to that tolerance never stopped
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "p": 1, "A": [[-1e16]], "B": [[1.0]],
                                "N": [[[0.0]]], "C": [[1.0]]}))
    code = main(["validate", "--input", str(path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stability"]["k_max_estimate"] == pytest.approx(np.sqrt(2e16), rel=1e-15)


def test_validate_above_kronecker_cap(tmp_path, capsys):
    n = MAX_KRON_N + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": n, "m": 1, "p": 1, "A": (-np.eye(n)).tolist(),
                                "B": np.ones((n, 1)).tolist(),
                                "N": [np.zeros((n, n)).tolist()],
                                "C": np.ones((1, n)).tolist()}))
    code = main(["validate", "--input", str(path)])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "KroneckerCapError"
    assert out["error"]["exit_code"] == 1


def test_gramians_output(sys_file, tmp_path):
    out_path = tmp_path / "gram.json"
    code = main(["gramians", "--input", str(sys_file), "--kind", "type2",
                 "--k", "1.0", "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["kind"] == "type2_bilinear"
    assert len(data["P"]) == 2 and len(data["Q"]) == 2
    assert data["lmi_margin"] <= 1e-8
    assert all(ev > 0 for ev in data["eigenvalues"]["P"])
    assert len(data["residuals"]) == 2


@pytest.mark.parametrize("command", ["gramians", "reduce"])
@pytest.mark.parametrize("kind, label", [("type1", "type1"), ("mixed", "mixed_Q1_P2")])
def test_every_gramian_kind_runs(sys_file, tmp_path, command, kind, label):
    # the mixed pair's P is the type-2 P at k = 0, bit for bit
    out_path = tmp_path / "out.json"
    order = ["--order", "1"] if command == "reduce" else []
    code = main([command, "--input", str(sys_file), "--kind", kind,
                 "--output", str(out_path)] + order)
    assert code == 0
    payload = json.loads((tmp_path / "out.report.json" if order else out_path).read_text())
    assert payload["kind"] == label
    if command == "gramians" and kind == "mixed":
        P2 = type2_gramians(load_system(sys_file), 0.0).P
        assert np.asarray(payload["P"]).tobytes() == P2.tobytes()


def test_reduce_writes_rom_and_report(sys_file, tmp_path):
    rom_path = tmp_path / "rom.json"
    code = main(["reduce", "--input", str(sys_file), "--kind", "type2",
                 "--k", "1.0", "--order", "1", "--output", str(rom_path)])
    assert code == 0
    rom = load_system(rom_path)
    assert rom.n == 1 and rom.m == 1 and rom.p == 1
    report = json.loads((tmp_path / "rom.report.json").read_text())
    assert report["r"] == 1
    assert len(report["hsv"]) == 2
    assert report["bound_all"] > 0.0
    assert report["bound_all"] == pytest.approx(2.0 * report["hsv"][1], rel=1e-12)


def test_reduce_with_tolerance(sys_file, tmp_path):
    rom_path = tmp_path / "romtol.json"
    code = main(["reduce", "--input", str(sys_file), "--kind", "type2",
                 "--k", "1.0", "--tol", "10.0", "--output", str(rom_path)])
    assert code == 0
    assert load_system(rom_path).n == 1


def test_reduce_infeasible_k(sys_file):
    code = main(["reduce", "--input", str(sys_file), "--kind", "type2",
                 "--k", "5.0", "--order", "1", "--quiet"])
    assert code == 1


def test_reduce_requires_order_or_tol(sys_file):
    assert main(["reduce", "--input", str(sys_file), "--kind", "type2",
                 "--k", "1.0", "--quiet"]) == 1


@pytest.mark.parametrize("argv", [
    ["reduce", "--input", "f.json", "--order", "1", "--tol", "1e-3"],
    ["reduce", "--order", "1"],
    ["validate", "--input", "f.json", "--csv", "x"],
])
def test_usage_errors_exit_validation_with_payload(argv, capsys):
    # exit 2 means a certified bound was violated; a bad command line is a
    # validation error
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["exit_code"] == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--T", "inf"],
    ["campaign", "--T", "inf"],
    ["simulate", "--h", "nan"],
    ["campaign", "--delta", "inf"],
    ["reduce", "--order", "1", "--k", "nan"],
    ["reduce", "--tol", "nan"],
])
def test_non_finite_values_exit_validation_with_payload(sys_file, argv, capsys):
    # an infinite horizon has no grid, and nan passes every `<= 0` test:
    # both are refused with the error payload, not a traceback
    argv = argv[:1] + ["--input", str(sys_file)] * (argv[0] != "campaign") + argv[1:]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError" and "must be finite" in error["message"]


def test_subcommands_register_only_the_flags_they_read(capsys):
    from bilbt.cli import _COMMAND_FLAGS
    assert sum(len(flags) for flags in _COMMAND_FLAGS.values()) == 42
    assert main(["campaign", "--k", "1.0"]) == 1
    assert "--k" in json.loads(capsys.readouterr().out)["error"]["message"]
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--help"])
    assert exc.value.code == 0


def test_simulate_writes_csv_and_summary(sys_file, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", "--input", str(sys_file), "--k", "0.5",
                 "--T", "1.0", "--h", "1e-2", "--control", "sinusoid",
                 "--output", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,u1,y1"
    assert len(lines) == 102  # header + 101 grid points
    # plain decimal cells that round-trip
    assert float(lines[1].split(",")[0]) == 0.0
    assert "(" not in lines[1]
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary["max_u_norm"] <= 0.5 + 1e-12
    assert summary["steps"] == 100


def test_simulate_csv_cells_are_each_floats_repr(sys_file, tmp_path, monkeypatch):
    # the bytes of a row are those of the repr of each of its floats, joined
    # by commas: signed zeros, short decimals and large and subnormal
    # exponents included, so every cell reads back as the same double
    import bilbt.cli
    from bilbt.simulation import Trajectory
    grid = np.array([0.0, 0.5, 1.0])
    states = np.array([[-0.0, 1e-05], [1.2345678901234567e300, -2.5e-308], [0.1, 3.0]])
    inputs = np.array([[-0.0], [1e16], [1e-05]])
    outputs = np.array([[5e-324], [-1e-300], [123456789.0]])
    monkeypatch.setattr(bilbt.cli, "simulate", lambda sys, x0, u, T, h:
                        Trajectory(grid, states, inputs, outputs, u))
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", "--input", str(sys_file), "--T", "1.0", "--h", "0.5",
                 "--output", str(csv_path), "--quiet"]) == 0
    lines = csv_path.read_text().splitlines()
    table = np.column_stack([grid, states, inputs, outputs])
    assert lines[1:] == [",".join(map(repr, row)) for row in table.tolist()]
    assert lines[1] == "0.0,-0.0,1e-05,-0.0,5e-324"
    back = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back.view(np.int64), table.view(np.int64))


def test_simulate_step_beyond_the_grid_cap_exits_validation(sys_file, capsys):
    # h = 1e-15 over T = 10 would make 1e16 steps: refused before any grid
    # is allocated, with the error payload and not a MemoryError
    assert main(["simulate", "--input", str(sys_file), "--h", "1e-15"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValueError" and "steps" in error["message"]


def test_verify_command(sys_file, tmp_path):
    out_path = tmp_path / "verify.json"
    code = main(["verify", "--input", str(sys_file), "--kind", "type2",
                 "--k", "0.8", "--order", "1", "--T", "2.0",
                 "--output", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["hard_failures"] == 0
    assert report["checks"]


def test_verify_integrates_each_suite_once(sys_file, tmp_path, monkeypatch):
    # one grouped call, from the campaign's executor: the full model beside
    # the ROM under the 7 controls of the type-2 stage feeds the error-bound
    # and reach checks, the B = 0 model from 2 unit states under 2 controls
    # feeds observability, and the full model under 2 spikes feeds Gronwall
    import bilbt.simulation
    import bilbt.verification
    calls = []
    grouped = bilbt.simulation.simulate_groups

    def counting(groups, *args, **kwargs):
        calls.append([(len(systems), len(controls)) for systems, controls, _ in groups])
        return grouped(groups, *args, **kwargs)

    # `simulate` goes through the module's own simulate_groups
    monkeypatch.setattr(bilbt.simulation, "simulate_groups", counting)
    monkeypatch.setattr(bilbt.verification, "simulate_groups", counting)
    code = main(["verify", "--input", str(sys_file), "--kind", "type2",
                 "--k", "0.8", "--order", "1", "--T", "2",
                 "--output", str(tmp_path / "verify.json")])
    assert code == 0
    assert calls == [[(2, 7), (1, 4), (1, 2)]]


def test_verify_exits_2_on_a_certified_hard_failure(sys_file, monkeypatch, capsys):
    # a reachability Gramian 1e4 times too small makes the reach energy and
    # error bounds fail far beyond their slack: a certified hard failure
    import bilbt.cli
    solve = bilbt.cli.type2_gramians

    def shrunk(sys, k, **kw):
        pair = solve(sys, k, **kw)
        return replace(pair, P=1e-4 * pair.P) if k > 0.0 else pair

    monkeypatch.setattr(bilbt.cli, "type2_gramians", shrunk)
    code = main(["verify", "--input", str(sys_file), "--k", "0.8", "--order", "1",
                 "--T", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["hard_failures"] >= 1
    assert report["violations"] >= report["hard_failures"]


CASE_KEY = ("check", "k", "r", "control")
CASE_FLAGS = ("passed", "certified", "violation", "hard_failure")
CASE_FLOATS = ("lhs", "rhs", "slack", "eps_q")


@pytest.mark.parametrize("label", ["worked-2x2", "random-6-3"])
def test_verify_is_the_campaigns_plan(label, tmp_path, capsys):
    # verify at the campaign's first bound and first order judges the cases
    # that a campaign of this one system judges there, from the same runs
    sys = dict(build_campaign_systems(2026))[label]
    config = CampaignConfig(seed=2026, T=0.5)
    k = K_FRACTIONS[0] * stability_report(sys).k_max_estimate
    r = _campaign_orders(square_root_balance(sys, type2_gramians(sys, k)).hsv)[0]
    path = tmp_path / "sys.json"
    save_system(sys, path)
    assert main(["verify", "--input", str(path), "--k", repr(k), "--order", str(r),
                 "--T", "0.5", "--seed", "2026"]) == 0
    cases = json.loads(capsys.readouterr().out)["checks"]
    keys = {tuple(case[key] for key in CASE_KEY) for case in cases}
    campaign = [case for case in benchmark_campaign(config, [(label, sys)]).cases
                if tuple(case[key] for key in CASE_KEY) in keys]
    assert len(cases) == 20
    assert ([[case[key] for key in CASE_KEY + CASE_FLAGS] for case in campaign]
            == [[case[key] for key in CASE_KEY + CASE_FLAGS] for case in cases])
    for ours, theirs in zip(cases, campaign):
        for key in CASE_FLOATS:
            assert ours[key] == pytest.approx(theirs[key], rel=1e-12, abs=0.0), key


def test_verify_at_k0_exits_1_before_any_solve(sys_file, monkeypatch, capsys):
    # every control of the suite is zero at k = 0, so every check would read
    # lhs = rhs = 0: verify refuses instead of reporting a vacuous pass
    import bilbt.gramians
    monkeypatch.setattr(bilbt.gramians, "solve_type2_riccati",
                        lambda *args, **kw: pytest.fail("verify solved a Gramian at k = 0"))
    assert main(["verify", "--input", str(sys_file), "--T", "0.5"]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and error["exit_code"] == 1
    assert "zero at k = 0" in error["message"] and "--k" in error["message"]
    assert "Traceback" not in captured.err


def test_verify_admits_a_suite_one_ulp_above_a_large_k(tmp_path, capsys):
    # at k = 3.3e5 the constant and sinusoid controls of the suite have a
    # computed bound of k + 5.8e-11 (one ulp of k): within rounding of k,
    # so the type-2 checks apply to them
    path = tmp_path / "stiff.json"
    save_system(BilinearSystem.from_matrices(np.diag([-1e12, -2e12]), np.eye(2),
                                             [np.zeros((2, 2))] * 2, np.eye(2)), path)
    code = main(["verify", "--input", str(path), "--k", "330000", "--order", "1",
                 "--T", "1e-9", "--h", "1e-12"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)["hard_failures"] == 0


@pytest.mark.parametrize("k, solves", [("0.5", 2)])
def test_verify_solves_the_k0_pair_once(sys_file, monkeypatch, capsys, k, solves):
    # P2 is the P of the type-2 pair at k = 0, solved once beside the pair at k
    import bilbt.gramians
    calls = []
    solve = bilbt.gramians.solve_type2_riccati
    monkeypatch.setattr(bilbt.gramians, "solve_type2_riccati",
                        lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    assert main(["verify", "--input", str(sys_file), "--k", k, "--T", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]
    assert len(calls) == solves


def test_campaign_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    # the default campaign is big; run two systems through the API
    from bilbt import CampaignConfig, benchmark_campaign, campaign_to_json
    cfg = CampaignConfig(seed=7, T=0.5, h=2e-3)
    out1.write_text(campaign_to_json(benchmark_campaign(cfg, small_campaign_systems(7))))
    out2.write_text(campaign_to_json(benchmark_campaign(cfg, small_campaign_systems(7))))
    assert out1.read_bytes() == out2.read_bytes()


def test_campaign_worker_death_exits_1_with_payload(monkeypatch, capsys):
    # a worker that dies breaks the pool; the CLI reports it like any other
    # campaign failure instead of printing a traceback
    import bilbt.verification
    parent = os.getpid()

    def die(sys, *args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("the system ran in the calling process, not in a worker")
        os._exit(3)

    monkeypatch.setattr(bilbt.verification, "_worker_count", lambda n: min(n, 2))
    monkeypatch.setattr(bilbt.verification, "stability_report", die)
    code = main(["campaign", "--T", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "CampaignWorkerError" and error["exit_code"] == 1
    assert captured.err.startswith("error: a campaign worker process died")
    assert "Traceback" not in captured.err
    assert multiprocessing.active_children() == []


def test_system_json_round_trip(tmp_path):
    sys = make_random_system(123, n=3, m=2, p=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_system(sys, p1)
    save_system(load_system(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
