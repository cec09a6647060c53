import json
import multiprocessing
import os

import numpy as np
import pytest

from bilbt import load_system, save_system
from bilbt.cli import main
from bilbt.kronecker import MAX_KRON_N
from bilbt.verification import worked_2x2

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
    # one batch of the full model beside the ROM feeds the error-bound, reach
    # and Gronwall checks; one batch of the B = 0 model feeds observability
    import bilbt.cli
    import bilbt.simulation
    calls = []
    batch = bilbt.simulation.simulate_batch

    def counting(systems, controls, *args, **kwargs):
        calls.append((len(systems), len(controls)))
        return batch(systems, controls, *args, **kwargs)

    # `simulate` goes through the module's own simulate_batch
    monkeypatch.setattr(bilbt.simulation, "simulate_batch", counting)
    monkeypatch.setattr(bilbt.cli, "simulate_batch", counting)
    code = main(["verify", "--input", str(sys_file), "--kind", "type2",
                 "--k", "0.8", "--order", "1", "--T", "2",
                 "--output", str(tmp_path / "verify.json")])
    assert code == 0
    assert calls == [(2, 5), (1, 3)]


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
