"""Command-line front door.

Subcommands: validate, gramians, reduce, simulate, verify, campaign.
One file per artifact (system, gramians, ROM, report); all outputs are
deterministic given the seed.

Exit codes: 0 success, 1 validation/feasibility error (a command line that
does not parse is one, and so is a system file that `validate` rejects, in
every command that reads one), 2 bound violation beyond the hard-failure
threshold, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .balancing import BalancingError, order_selector, square_root_balance, truncate
from .gramians import mixed_pair_Q1_P2, type1_gramians, type2_gramians
from .kronecker import KroneckerCapError
from .matrix_equations import MatrixEquationError
from .simulation import SimulationBlowUpError, bounded_control_suite, simulate, simulate_groups
from .system import (
    BilinearSystem,
    SystemFormatError,
    load_system,
    save_system,
    stability_report,
    validate,
)
from .verification import (
    CampaignConfig,
    CampaignWorkerError,
    benchmark_campaign,
    build_campaign_systems,
    campaign_to_csv,
    campaign_to_json,
    check_error_bound,
    check_gronwall_P2,
    check_observ_energy,
    check_reach_energy,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND_VIOLATION = 2
EXIT_IO = 3

KIND_CHOICES = ("type1", "type2", "p2", "mixed")


@dataclass
class RunConfig:
    command: str
    input: str = None
    output: str = None
    kind: str = "type2"
    k: float = 0.0
    delta: float = None
    order: int = None
    tol: float = None
    T: float = 10.0
    h: float = 1e-3
    seed: int = 7
    control: str = "sinusoid"
    csv: str = None
    quiet: bool = False

    def __post_init__(self):
        if self.order is not None and self.tol is not None:
            raise ValueError("--order and --tol are mutually exclusive")
        for name in ("T", "h", "tol", "delta"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"--{name} must be positive")
        if self.k < 0:
            raise ValueError("--k must be nonnegative")


def _emit(config, payload):
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not config.quiet:
        _sys.stdout.write(text)


def _error_payload(exc, code):
    return {"error": {"type": type(exc).__name__, "message": str(exc),
                      "exit_code": code}}


def _matrix(a):
    return np.asarray(a).tolist()


def _gramian_pair(config, sys: BilinearSystem):
    if config.kind == "type1":
        return type1_gramians(sys)
    if config.kind == "type2":
        return type2_gramians(sys, config.k, delta=config.delta)
    if config.kind == "mixed":
        return mixed_pair_Q1_P2(sys, delta=config.delta)
    raise ValueError(f"kind {config.kind!r} does not define a Gramian pair here")


def _load_valid_system(path):
    """The system in `path`, or ValueError naming every invariant it breaks."""
    sys = load_system(path)
    result = validate(sys)
    if not result.ok:
        raise ValueError("invalid system: " + "; ".join(result.issues))
    return sys


def _cmd_validate(config):
    sys = load_system(config.input)
    result = validate(sys)
    payload = {"valid": result.ok, "issues": list(result.issues)}
    if result.ok:
        rep = stability_report(sys)
        payload["stability"] = {
            "hurwitz": rep.hurwitz,
            "spectral_abscissa_A": rep.spectral_abscissa_A,
            "ms_abscissa": rep.ms_abscissa,
            "k_max_estimate": rep.k_max_estimate,
        }
    _emit(config, payload)
    return EXIT_OK if result.ok else EXIT_VALIDATION


def _cmd_gramians(config):
    sys = _load_valid_system(config.input)
    if config.kind == "p2":
        pair = type2_gramians(sys, 0.0, delta=config.delta)
        payload = {
            "kind": "type2_stochastic", "k": 0.0, "delta": pair.delta,
            "P": _matrix(pair.P),
            "eigenvalues": {"P": _matrix(np.linalg.eigvalsh(pair.P))},
            "diagnostics": [pair.diagnostics[0].to_dict()],
        }
    else:
        pair = _gramian_pair(config, sys)
        payload = {
            "kind": pair.kind, "k": pair.k, "delta": pair.delta,
            "lmi_margin": pair.lmi_margin, "minimal": pair.minimal,
            "P": _matrix(pair.P), "Q": _matrix(pair.Q),
            "eigenvalues": {"P": _matrix(np.linalg.eigvalsh(pair.P)),
                            "Q": _matrix(np.linalg.eigvalsh(pair.Q))},
            "residuals": [d.residual_norm for d in pair.diagnostics],
            "diagnostics": [d.to_dict() for d in pair.diagnostics],
        }
    _emit(config, payload)
    return EXIT_OK


def _report_path(output):
    return (output[:-5] if output.endswith(".json") else output) + ".report.json"


def _cmd_reduce(config):
    sys = _load_valid_system(config.input)
    if config.kind == "p2":
        raise ValueError("reduce needs a Gramian pair; use --kind type1|type2|mixed")
    pair = _gramian_pair(config, sys)
    bal = square_root_balance(sys, pair)
    if config.order is not None:
        r = config.order
    elif config.tol is not None:
        r = order_selector(bal.hsv, config.tol)
        if r >= sys.n:
            raise BalancingError(
                f"no order r < n={sys.n} meets tolerance {config.tol:g} "
                f"(smallest bound 2*sigma_n = {2 * bal.hsv[-1]:.3e})"
            )
    else:
        raise ValueError("reduce requires --order or --tol")
    rom = truncate(bal, r)

    if config.output:
        save_system(rom.system, config.output)
    report = {
        "r": rom.r, "kind": rom.gramian_kind, "k": rom.k, "delta": pair.delta,
        "hsv": _matrix(bal.hsv), "tail_hsv": _matrix(rom.tail_hsv),
        "bound_all": rom.bound_all, "bound_distinct": rom.bound_distinct,
        "distinct_tolerance": rom.distinct_tolerance,
        "lmi_margin": pair.lmi_margin,
        "diagnostics": [d.to_dict() for d in pair.diagnostics],
    }
    report_config = config
    if config.output:
        report_config = RunConfig(command=config.command,
                                  output=_report_path(config.output),
                                  quiet=config.quiet)
    _emit(report_config, report)
    return EXIT_OK


def _pick_control(config, m):
    suite = bounded_control_suite(m, config.k, config.T, config.seed)
    by_label = {"zero": "zero", "constant": "constant",
                "sinusoid": "sinusoid-0", "pwc": "piecewise-0"}
    if config.control not in by_label:
        raise ValueError(f"unknown control {config.control!r} "
                         f"(choose from {sorted(by_label)})")
    return next(sig for sig in suite if sig.label == by_label[config.control])


def _cmd_simulate(config):
    sys = _load_valid_system(config.input)
    u = _pick_control(config, sys.m)
    traj = simulate(sys, np.zeros(sys.n), u, config.T, config.h)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            header = (["t"] + [f"x{i + 1}" for i in range(sys.n)]
                      + [f"u{i + 1}" for i in range(sys.m)]
                      + [f"y{i + 1}" for i in range(sys.p)])
            fh.write(",".join(header) + "\n")
            table = np.column_stack([traj.grid, traj.states, traj.inputs, traj.outputs])
            for row in table.tolist():
                fh.write(",".join(map(repr, row)) + "\n")
    summary = {
        "control": u.label, "k_bound": u.k_bound, "T": config.T,
        "h": traj.h, "steps": int(traj.grid.size - 1),
        "u_l2": traj.u_l2, "y_l2": traj.y_l2,
        "max_u_norm": float(np.sqrt((traj.inputs ** 2).sum(axis=1).max())),
        "final_state_norm": float(np.linalg.norm(traj.states[-1])),
    }
    summary_config = config
    if config.output:
        summary_config = RunConfig(command=config.command,
                                   output=config.output + ".summary.json",
                                   quiet=config.quiet)
    _emit(summary_config, summary)
    return EXIT_OK


def _cmd_verify(config):
    sys = _load_valid_system(config.input)
    if config.kind != "type2":
        raise ValueError("verify certifies the control-bounded pair; use --kind type2")
    pair = type2_gramians(sys, config.k, delta=config.delta)
    bal = square_root_balance(sys, pair)
    r = config.order if config.order is not None else max(1, sys.n // 2)
    rom = truncate(bal, r)
    P2 = type2_gramians(sys, 0.0, delta=config.delta).P

    suite = bounded_control_suite(sys.m, config.k, config.T, config.seed)
    zero_B = BilinearSystem.from_matrices(sys.A, np.zeros((sys.n, sys.m)),
                                          sys.N, sys.C)
    rng = np.random.default_rng(config.seed)
    x0 = rng.standard_normal(sys.n)
    x0 /= np.linalg.norm(x0)
    (full, reduced), (free,) = simulate_groups(
        [([sys, rom.system], suite, None), ([zero_B], suite[:3], [x0])], config.T, config.h)
    reports = []
    for u, traj, traj_rom in zip(suite, full, reduced):
        reports.extend(check_error_bound(rom, u, traj, traj_rom))
        reports.append(check_reach_energy(pair, u, traj))
        reports.append(check_gronwall_P2(P2, u, traj))
    reports += [check_observ_energy(zero_B, pair, u, traj) for u, traj in zip(suite, free)]

    payload = {
        "r": rom.r, "k": pair.k, "hsv": _matrix(bal.hsv),
        "bound_all": rom.bound_all,
        "checks": [rep.to_dict() for rep in reports],
        "violations": sum(not rep.passed for rep in reports),
        "hard_failures": sum(rep.hard_failure for rep in reports),
    }
    _emit(config, payload)
    return EXIT_BOUND_VIOLATION if payload["hard_failures"] else EXIT_OK


def _cmd_campaign(config):
    result = benchmark_campaign(CampaignConfig(seed=config.seed, T=config.T,
                                               h=config.h, delta=config.delta),
                                build_campaign_systems(config.seed))
    text = campaign_to_json(result)
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not config.quiet:
        _sys.stdout.write(text)
    if config.csv:
        with open(config.csv, "w", encoding="utf-8") as fh:
            fh.write(campaign_to_csv(result))
    if result.summary["certified_hard_failures"]:
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "gramians": _cmd_gramians,
    "reduce": _cmd_reduce,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "campaign": _cmd_campaign,
}


def run(config: RunConfig) -> int:
    """Execute one pipeline command; returns the process exit status."""
    try:
        return _COMMANDS[config.command](config)
    except json.JSONDecodeError as exc:
        message = f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        _sys.stderr.write(message + "\n")
        _emit(RunConfig(command=config.command, quiet=config.quiet),
              _error_payload(exc, EXIT_IO))
        return EXIT_IO
    except (OSError, SystemFormatError) as exc:
        _sys.stderr.write(f"I/O error: {exc}\n")
        _emit(RunConfig(command=config.command, quiet=config.quiet),
              _error_payload(exc, EXIT_IO))
        return EXIT_IO
    except (MatrixEquationError, BalancingError, SimulationBlowUpError,
            KroneckerCapError, CampaignWorkerError, ValueError) as exc:
        _sys.stderr.write(f"error: {exc}\n")
        _emit(RunConfig(command=config.command, quiet=config.quiet),
              _error_payload(exc, EXIT_VALIDATION))
        return EXIT_VALIDATION


class UsageError(ValueError):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the flags each subcommand reads; defaults are RunConfig's
_FLAGS = {
    "input": {"required": True},
    "output": {},
    "kind": {"choices": KIND_CHOICES},
    "k": {"type": float},
    "delta": {"type": float},
    "order": {"type": int},
    "tol": {"type": float},
    "T": {"type": float},
    "h": {"type": float},
    "seed": {"type": int},
    "control": {},
    "csv": {},
    "quiet": {"action": "store_true"},
}
_GRAMIAN_FLAGS = ("input", "output", "kind", "k", "delta", "quiet")
_COMMAND_FLAGS = {
    "validate": ("input", "output", "quiet"),
    "gramians": _GRAMIAN_FLAGS,
    "reduce": _GRAMIAN_FLAGS + ("order", "tol"),
    "simulate": ("input", "output", "k", "T", "h", "seed", "control", "quiet"),
    "verify": _GRAMIAN_FLAGS + ("order", "T", "h", "seed"),
    "campaign": ("output", "seed", "T", "h", "delta", "csv", "quiet"),
}


def _build_parser():
    parser = _Parser(
        prog="bilbt",
        description="Balanced truncation for bilinear systems with certified "
                    "error bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for flag in flags:
            cmd.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Parse the command line and run it.  A command line that does not parse
    or that RunConfig rejects exits with EXIT_VALIDATION and the JSON error
    payload, like any other validation error."""
    argv = _sys.argv[1:] if argv is None else list(argv)
    try:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
    except ValueError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        _emit(RunConfig(command="", quiet="--quiet" in argv),
              _error_payload(exc, EXIT_VALIDATION))
        return EXIT_VALIDATION
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
