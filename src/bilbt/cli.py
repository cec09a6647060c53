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
from dataclasses import asdict, dataclass

import numpy as np

from .balancing import BalancingError, order_selector, square_root_balance, truncate
from .gramians import mixed_pair_Q1_P2, type1_gramians, type2_gramians
from .kronecker import KroneckerCapError
from .matrix_equations import MatrixEquationError
from .simulation import SimulationBlowUpError, bounded_control_suite, simulate
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
    reduction_cases,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BOUND_VIOLATION = 2
EXIT_IO = 3

KIND_CHOICES = ("type1", "type2", "mixed")


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
        for name in ("T", "h", "tol", "delta", "k"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
            if value is not None and name != "k" and value <= 0:
                raise ValueError(f"--{name} must be positive")
        if self.k < 0:
            raise ValueError("--k must be nonnegative")


def _write(text, path, quiet=False):
    """Write `text` to the file `path`, or else to stdout unless `quiet`."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not quiet:
        _sys.stdout.write(text)


def _emit(payload, path, quiet):
    _write(json.dumps(payload, sort_keys=True, indent=1) + "\n", path, quiet)


def _fail(exc, message, code, quiet):
    """Report `exc`: `message` on stderr, its JSON error payload on stdout
    unless `quiet`; returns the exit status `code`."""
    _sys.stderr.write(message + "\n")
    _emit({"error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code}}, None, quiet)
    return code


def _matrix(a):
    return np.asarray(a).tolist()


def _gramian_pair(config, sys: BilinearSystem):
    if config.kind == "type1":
        return type1_gramians(sys)
    if config.kind == "type2":
        return type2_gramians(sys, config.k, delta=config.delta)
    if config.kind == "mixed":
        return mixed_pair_Q1_P2(sys, delta=config.delta)
    raise ValueError(f"unknown Gramian kind {config.kind!r}")


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
    _emit(payload, config.output, config.quiet)
    return EXIT_OK if result.ok else EXIT_VALIDATION


def _cmd_gramians(config):
    pair = _gramian_pair(config, _load_valid_system(config.input))
    payload = {
        "kind": pair.kind, "k": pair.k, "delta": pair.delta,
        "lmi_margin": pair.lmi_margin, "minimal": pair.minimal,
        "P": _matrix(pair.P), "Q": _matrix(pair.Q),
        "eigenvalues": {"P": _matrix(np.linalg.eigvalsh(pair.P)),
                        "Q": _matrix(np.linalg.eigvalsh(pair.Q))},
        "residuals": [d.residual_norm for d in pair.diagnostics],
        "diagnostics": [asdict(d) for d in pair.diagnostics],
    }
    _emit(payload, config.output, config.quiet)
    return EXIT_OK


def _report_path(output):
    return (output[:-5] if output.endswith(".json") else output) + ".report.json"


def _cmd_reduce(config):
    sys = _load_valid_system(config.input)
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
        "diagnostics": [asdict(d) for d in pair.diagnostics],
    }
    _emit(report, config.output and _report_path(config.output), config.quiet)
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
    _emit(summary, config.output and config.output + ".summary.json", config.quiet)
    return EXIT_OK


def _campaign_config(config):
    return CampaignConfig(seed=config.seed, T=config.T, h=config.h, delta=config.delta)


def _cmd_verify(config):
    sys = _load_valid_system(config.input)
    if config.kind != "type2":
        raise ValueError("verify certifies the control-bounded pair; use --kind type2")
    if config.k == 0.0:
        raise ValueError("every control of the suite is zero at k = 0, so verify "
                         "would certify nothing; pass a control bound --k > 0")
    pair = type2_gramians(sys, config.k, delta=config.delta)
    bal = square_root_balance(sys, pair)
    r = config.order if config.order is not None else max(1, sys.n // 2)
    rom = truncate(bal, r)
    P2 = type2_gramians(sys, 0.0, delta=config.delta).P
    cases = reduction_cases(_campaign_config(config), config.input, sys, pair, rom, P2)
    payload = {
        "r": rom.r, "k": pair.k, "hsv": _matrix(bal.hsv),
        "bound_all": rom.bound_all, "checks": cases,
        "violations": sum(case["violation"] for case in cases),
        "hard_failures": sum(case["hard_failure"] for case in cases),
    }
    _emit(payload, config.output, config.quiet)
    return EXIT_BOUND_VIOLATION if payload["hard_failures"] else EXIT_OK


def _cmd_campaign(config):
    result = benchmark_campaign(_campaign_config(config),
                                build_campaign_systems(config.seed))
    _write(campaign_to_json(result), config.output, config.quiet)
    if config.csv:
        _write(campaign_to_csv(result), config.csv)
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
        return _fail(exc, f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}", EXIT_IO, config.quiet)
    except (OSError, SystemFormatError) as exc:
        return _fail(exc, f"I/O error: {exc}", EXIT_IO, config.quiet)
    except (MatrixEquationError, BalancingError, SimulationBlowUpError,
            KroneckerCapError, CampaignWorkerError, ValueError) as exc:
        return _fail(exc, f"error: {exc}", EXIT_VALIDATION, config.quiet)


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
        return _fail(exc, f"error: {exc}", EXIT_VALIDATION, "--quiet" in argv)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
