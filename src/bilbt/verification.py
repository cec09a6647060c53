"""Empirical certification of the reduction bounds on simulated trajectories.

Checks implemented:

* error_bound_thm / error_bound_cor: ||y - y_r||_{L2_T} against
  2 * (sum of distinct / all truncated Hankel values) * ||u||_{L2_T},
  for controls bounded pointwise by the k the Gramians were built with.
* reach_energy: per eigenpair (lambda_j, p_j) of the reachability Gramian,
  lambda_j^{-1/2} * sup_t |<x(t), p_j>| <= ||u||_{L2_T} from x(0) = 0.
* observ_energy: with B = 0, the output energy int ||y||^2 dt against
  x0^T Q x0; for B != 0 the cross-term variant is reported informationally.
* gronwall_P2: x(t)^T P2^-1 x(t) <= (int_0^t ||u||^2) * exp(int_0^t ||u||^2)
  at every grid point, with no bound on the control.
* mixed_side_conditions: the two endpoint-versus-integral inequalities that
  the (P2, Q1) pair needs before its error bound applies, plus the bound
  itself (informational when the conditions fail).

Each check judges the trajectories its caller integrated and reports the T
and h of their grid.  Every check carries a quadrature slack tolerance
estimated per run; a hard failure is declared only when the slack is
exceeded tenfold.  The campaign driver runs a fixed grid of control bounds,
orders and controls over a given list of systems (by default the seeded
families of `build_campaign_systems`), one system per task in a pool of
forked worker processes, and aggregates pass rates, worst slacks and bound
tightness ratios per Gramian kind.  Each system is planned (Gramian solves,
reductions, controls, initial states), integrated in one `simulate_groups`
call and then judged, case by case.
Reductions based on the plain (unshifted) Gramian pair carry no certified
bound and are included as empirical baselines only.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .balancing import (
    BalancingError,
    ReducedModel,
    square_root_balance,
    truncate,
)
from .gramians import (
    GramianPair,
    mixed_pair_from_P2,
    stochastic_type2_P2,
    type1_gramians,
    type2_gramians,
)
from .kronecker import ms_abscissa, spectral_abscissa
from .matrix_equations import MatrixEquationError, invert_spd
from .simulation import (
    ControlSignal,
    Trajectory,
    bounded_control_suite,
    cumulative_trapezoid,
    l2_richardson,
    quadrature_slack,
    simulate_groups,
    trapezoid_pair,
)
from .system import BilinearSystem, stability_report

CHECK_NAMES = ("error_bound_thm", "error_bound_cor", "reach_energy",
               "observ_energy", "gronwall_P2", "mixed_side_conditions")

HARD_FAILURE_FACTOR = 10.0
EPS_FLOOR_REL = 1e-9


class PreconditionViolation(ValueError):
    """A check was invoked outside its hypotheses (e.g. control exceeds k)."""


@dataclass(frozen=True)
class BoundCheckReport:
    check: str
    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    tolerance_used: float
    passed: bool
    context: dict = field(default_factory=dict)

    @property
    def hard_failure(self):
        return self.slack < -HARD_FAILURE_FACTOR * self.tolerance_used

    def to_dict(self):
        return {
            "check": self.check,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "slack": float(self.slack),
            "tolerance_used": float(self.tolerance_used),
            "passed": bool(self.passed),
            "hard_failure": bool(self.hard_failure),
            "context": self.context,
        }


def _report(check, lhs, rhs, eps, context):
    slack = rhs - lhs
    return BoundCheckReport(check=check, lhs=float(lhs), rhs=float(rhs),
                            slack=float(slack), tolerance_used=float(eps),
                            passed=bool(slack >= -eps), context=context or {})


def _floor(*scales):
    return EPS_FLOOR_REL * (1.0 + sum(abs(s) for s in scales))


def _require_control_bound(kind, k, u: ControlSignal):
    if kind == "type2_bilinear" and u.k_bound > k + 1e-12:
        raise PreconditionViolation(
            f"control bound {u.k_bound:.6g} exceeds the Gramian bound k={k:.6g}; "
            "the certified bound does not apply"
        )


def _require_same_run(traj_full: Trajectory, traj_rom: Trajectory):
    if not (np.array_equal(traj_full.grid, traj_rom.grid)
            and np.array_equal(traj_full.inputs, traj_rom.inputs)):
        raise ValueError("full and reduced runs are not on the same grid under the same control")


def _require_run_under(u: ControlSignal, traj: Trajectory):
    # the integrator samples u on the grid, so a run under u has these inputs bit for bit
    if not np.array_equal(u(traj.grid), traj.inputs):
        raise ValueError(f"the run was not made under the control {u.label!r}")


def _run_context(context, traj: Trajectory, u: ControlSignal, **kw):
    """The run's T, h and control and `kw`; the caller's `context` keys win."""
    return {"T": float(traj.grid[-1]), "h": traj.h, "control": u.label, **kw,
            **(context or {})}


def check_error_bound(rom: ReducedModel, u: ControlSignal, traj_full: Trajectory,
                      traj_rom: Trajectory, context=None):
    """Compare the output error of a reduction against its certified constants.

    `traj_full` and `traj_rom` are the full model and `rom.system` under `u`
    from zero, on one grid.  Returns two reports: the sharper distinct-value
    constant first, the plain tail-sum constant second.  For a reduction from
    the control-bounded pair the control must respect the bound k stored in
    the reduction.
    """
    _require_control_bound(rom.gramian_kind, rom.k, u)
    _require_same_run(traj_full, traj_rom)
    _require_run_under(u, traj_full)
    diff = traj_full.outputs - traj_rom.outputs
    lhs, lhs_coarse = l2_richardson(diff, traj_full.grid)
    u_norm, u_coarse = l2_richardson(traj_full.inputs, traj_full.grid)

    context = _run_context(context, traj_full, u, control_bound=float(u.k_bound),
                           r=int(rom.r), kind=rom.gramian_kind, k=float(rom.k))
    reports = []
    for check, bound in (("error_bound_thm", rom.bound_distinct),
                         ("error_bound_cor", rom.bound_all)):
        rhs = bound * u_norm
        eps = quadrature_slack((lhs, lhs_coarse), (rhs, bound * u_coarse),
                               floor=_floor(lhs, rhs))
        reports.append(_report(check, lhs, rhs, eps, dict(context)))
    return tuple(reports)


def check_reach_energy(pair: GramianPair, u: ControlSignal, traj: Trajectory,
                       context=None) -> BoundCheckReport:
    """Worst-direction reachability energy bound on `traj`, run under `u` from
    x(0) = 0: for every eigenpair of P the scaled peak component must stay
    below ||u||_{L2_T}."""
    _require_control_bound(pair.kind, pair.k, u)
    _require_run_under(u, traj)
    w, vecs = np.linalg.eigh(0.5 * (pair.P + pair.P.T))
    if w.min() <= 0.0:
        raise MatrixEquationError(
            f"reachability Gramian singular after clamp (lambda_min = {w.min():.3e})"
        )
    proj = traj.states @ vecs
    scaled_peaks = np.abs(proj).max(axis=0) / np.sqrt(w)
    worst = int(np.argmax(scaled_peaks))
    lhs = float(scaled_peaks[worst])
    rhs, rhs_coarse = l2_richardson(traj.inputs, traj.grid)
    eps = quadrature_slack((rhs, rhs_coarse), floor=_floor(lhs, rhs))
    context = _run_context(context, traj, u, kind=pair.kind, k=float(pair.k),
                           worst_eigenvalue=float(w[worst]))
    return _report("reach_energy", lhs, rhs, eps, context)


def check_observ_energy(sys: BilinearSystem, pair: GramianPair, u: ControlSignal,
                        traj: Trajectory, context=None) -> BoundCheckReport:
    """Output energy of `traj`, run of `sys` under `u`, against the quadratic
    form of Q at x0 = traj.states[0].

    Strict pass/fail requires B = 0 (then int ||y||^2 dt <= x0^T Q x0); for
    B != 0 the cross-term 2 int x^T Q B u dt is added to the right-hand side
    and the report is informational."""
    _require_control_bound(pair.kind, pair.k, u)
    _require_run_under(u, traj)
    x0 = traj.states[0]
    Q = 0.5 * (pair.Q + pair.Q.T)
    lhs, lhs_coarse = trapezoid_pair((traj.outputs ** 2).sum(axis=1), traj.grid)
    rhs = rhs_coarse = float(x0 @ Q @ x0)
    informational = bool(np.any(sys.B != 0.0))
    if informational:
        cross = 2.0 * np.einsum("ki,ij,kj->k", traj.states, Q @ sys.B, traj.inputs)
        fine, coarse = trapezoid_pair(cross, traj.grid)
        rhs, rhs_coarse = rhs + fine, rhs_coarse + coarse
    eps = quadrature_slack((lhs, lhs_coarse), (rhs, rhs_coarse),
                           floor=_floor(lhs, rhs))
    context = _run_context(context, traj, u, kind=pair.kind, k=float(pair.k),
                           informational=informational)
    return _report("observ_energy", lhs, rhs, eps, context)


def check_gronwall_P2(P2, u: ControlSignal, traj: Trajectory,
                      context=None) -> BoundCheckReport:
    """Exponential-in-control-energy bound on x(t)^T P2^-1 x(t) along `traj`,
    a run under `u` from x(0) = 0; holds for arbitrary (unbounded) controls."""
    _require_run_under(u, traj)
    X2, _cond = invert_spd(P2)
    lhs_t = np.einsum("ki,ij,kj->k", traj.states, X2, traj.states)
    usq = (traj.inputs ** 2).sum(axis=1)
    cum = cumulative_trapezoid(usq, traj.grid)
    rhs_t = cum * np.exp(cum)

    coarse_grid = traj.grid[::2]
    cum_coarse = np.interp(traj.grid, coarse_grid,
                           cumulative_trapezoid(usq[::2], coarse_grid))
    rhs_coarse_t = cum_coarse * np.exp(cum_coarse)

    worst = int(np.argmax(lhs_t - rhs_t))
    lhs, rhs = float(lhs_t[worst]), float(rhs_t[worst])
    eps = quadrature_slack((rhs, float(rhs_coarse_t[worst])),
                           floor=_floor(lhs, rhs))
    context = _run_context(context, traj, u, worst_time=float(traj.grid[worst]))
    # the maximising grid point decides: it passes iff every point passes
    return _report("gronwall_P2", lhs, rhs, eps, context)


def check_mixed_side_conditions(rom: ReducedModel, u: ControlSignal,
                                traj_full: Trajectory, traj_rom: Trajectory,
                                context=None) -> BoundCheckReport:
    """Evaluate the two side conditions the (P2, Q1) reduction needs: the
    endpoint quadratic forms (error-weighted by diag(hsv), sum-weighted by its
    inverse) must dominate the corresponding control-energy integrals.  When
    both hold the output error bound applies; the bound numbers are reported
    either way (informational when the conditions fail).  `traj_full` runs
    the balanced realization of `rom.hsv` that `rom` truncates, `traj_rom`
    runs `rom.system`, both under `u` from zero on one grid."""
    if rom.gramian_kind != "mixed_Q1_P2":
        raise ValueError("reduction was not built from the mixed (P2, Q1) pair")
    _require_same_run(traj_full, traj_rom)
    _require_run_under(u, traj_full)
    r = rom.r
    w = np.asarray(rom.hsv, dtype=float)
    x, xr = traj_full.states, traj_rom.states
    z_err = np.hstack([x[:, :r] - xr, x[:, r:]])
    z_sum = np.hstack([x[:, :r] + xr, x[:, r:]])
    usq = (traj_full.inputs ** 2).sum(axis=1)

    q_err = (z_err ** 2 * w).sum(axis=1)
    q_sum = (z_sum ** 2 / w).sum(axis=1)
    end_err, end_sum = float(q_err[-1]), float(q_sum[-1])
    int_err, int_err_c = trapezoid_pair(q_err * usq, traj_full.grid)
    int_sum, int_sum_c = trapezoid_pair(q_sum * usq, traj_full.grid)

    lhs = max(int_err - end_err, int_sum - end_sum)
    rhs = 0.0
    eps = quadrature_slack((int_err, int_err_c), (int_sum, int_sum_c),
                           floor=_floor(end_err, end_sum))

    err, _ = l2_richardson(traj_full.outputs - traj_rom.outputs, traj_full.grid)
    u_norm, _ = l2_richardson(traj_full.inputs, traj_full.grid)
    bound = rom.bound_all * u_norm
    context = _run_context(context, traj_full, u, control_bound=float(u.k_bound),
                           r=int(rom.r), kind=rom.gramian_kind,
                           condition_error_endpoint=end_err,
                           condition_error_integral=int_err,
                           condition_sum_endpoint=end_sum,
                           condition_sum_integral=int_sum,
                           error_lhs=float(err), error_rhs=float(bound),
                           error_within_bound=bool(err <= bound + eps + _floor(err, bound)))
    return _report("mixed_side_conditions", lhs, rhs, eps, context)


# ---------------------------------------------------------------------------
# seeded system families

RANDOM_ABSCISSA_MARGIN = 1.0
RANDOM_MSAB_TARGET = -0.3


def random_ms_stable_system(n, m, p, rng, coupling=0.4) -> BilinearSystem:
    """Random dense system, shifted to spectral abscissa -RANDOM_ABSCISSA_MARGIN
    and with the coupling matrices scaled down until the mean-square abscissa
    is at most RANDOM_MSAB_TARGET."""
    A0 = rng.standard_normal((n, n))
    A = A0 - (spectral_abscissa(A0) + RANDOM_ABSCISSA_MARGIN) * np.eye(n)
    B = rng.standard_normal((n, m)) / np.sqrt(n)
    C = rng.standard_normal((p, n)) / np.sqrt(n)
    N = [coupling / np.sqrt(n) * rng.standard_normal((n, n)) for _ in range(m)]
    for _ in range(80):
        if ms_abscissa(A, N) <= RANDOM_MSAB_TARGET:
            break
        N = [0.7 * Ni for Ni in N]
    else:
        raise RuntimeError("could not scale couplings to mean-square stability")
    return BilinearSystem.from_matrices(A, B, N, C)


def linear_stable_system(n, m, p, rng) -> BilinearSystem:
    """Random stable linear system (all coupling matrices zero)."""
    sys = random_ms_stable_system(n, m, p, rng, coupling=0.0)
    return BilinearSystem.from_matrices(sys.A, sys.B,
                                        [np.zeros((n, n))] * m, sys.C)


def worked_2x2() -> BilinearSystem:
    """The fixed two-state, one-input example used across reports and tests."""
    return BilinearSystem.from_matrices(
        A=[[-2.0, 0.5], [0.0, -1.0]],
        B=[[1.0], [0.5]],
        N=[[[0.3, -0.1], [0.2, 0.1]]],
        C=[[1.0, -0.5]],
    )


def duplicate_system(sys: BilinearSystem) -> BilinearSystem:
    """Two decoupled copies with independent input/output channels.

    The Gramians of the double are block-diagonal copies, so every Hankel
    singular value appears with exact multiplicity two: the constructed case
    for the distinct-value error bound."""
    n, m, p = sys.n, sys.m, sys.p
    Z = np.zeros((n, n))
    A = np.block([[sys.A, Z], [Z, sys.A]])
    B = np.block([[sys.B, np.zeros((n, m))], [np.zeros((n, m)), sys.B]])
    C = np.block([[sys.C, np.zeros((p, n))], [np.zeros((p, n)), sys.C]])
    N = [np.block([[Ni, Z], [Z, Z]]) for Ni in sys.N]
    N += [np.block([[Z, Z], [Z, Ni]]) for Ni in sys.N]
    return BilinearSystem.from_matrices(A, B, N, C)


# ---------------------------------------------------------------------------
# campaign driver

RANDOM_DIMS = (2, 3, 4, 6, 8, 10, 16, 20)
K_FRACTIONS = (0.4, 0.8)  # of the estimated largest feasible bound
SMALL_CONTROL_FRACTION = 0.5  # bound of the extra constant and sinusoid, relative to k
MIN_TAIL_REL = 1e-7  # skip orders whose bound is below numerical noise
MAX_ORDERS = 3
OBSERV_X0_COUNT = 2


@dataclass(frozen=True)
class CampaignConfig:
    """The settings of a campaign run; every random draw derives from `seed`."""

    seed: int = 7
    T: float = 10.0
    h: float = 1e-3
    delta: float = None


def build_campaign_systems(seed):
    """The default (label, system) list of a campaign, fixed by the seed."""
    systems = [("worked-2x2", worked_2x2())]
    for i, n in enumerate((4, 6)):
        rng = np.random.default_rng([seed, 10 + i])
        systems.append((f"linear-{n}", linear_stable_system(n, 2, 2, rng)))
    for i, n in enumerate(RANDOM_DIMS):
        m, p = [(1, 1), (2, 1), (1, 2), (2, 2)][i % 4]
        rng = np.random.default_rng([seed, 100 + i])
        systems.append((f"random-{n}-{i}", random_ms_stable_system(n, m, p, rng)))
    rng = np.random.default_rng([seed, 999])
    systems.append(("repeated-4", duplicate_system(random_ms_stable_system(2, 1, 1, rng))))
    return systems


def _campaign_orders(hsv):
    n = hsv.size
    qualifying = [r for r in range(1, n)
                  if 2.0 * hsv[r:].sum() >= MIN_TAIL_REL * hsv[0]]
    if not qualifying:
        qualifying = [max(1, n // 2)]
    picks = {qualifying[0], qualifying[len(qualifying) // 2], qualifying[-1]}
    return sorted(picks)[:MAX_ORDERS]


def _campaign_controls(m, k, T, seed_tags):
    """The default suite at bound k, plus a constant and a sinusoid at
    SMALL_CONTROL_FRACTION * k."""
    frac = SMALL_CONTROL_FRACTION
    small = bounded_control_suite(m, frac * k, T, seed_tags + [int(frac * 1e6)],
                                  n_sinusoids=1, n_piecewise=0)
    return bounded_control_suite(m, k, T, seed_tags) + [
        replace(sig, label=f"{sig.label}@{frac:g}k")
        for sig in small[1:]]  # skip the duplicate zero signal


def _ratio(lhs, rhs):
    return float(lhs / rhs) if rhs > 1e-300 else None


class _CaseLog:
    def __init__(self):
        self.cases = []

    def add(self, report: BoundCheckReport, system, n, certified, tail_sum=None,
            note=""):
        entry = {
            "case": len(self.cases),
            "check": report.check,
            "system": system,
            "n": int(n),
            "kind": report.context.get("kind", ""),
            "k": report.context.get("k", report.context.get("control_bound", 0.0)),
            "r": report.context.get("r"),
            "control": report.context.get("control", ""),
            "control_bound": report.context.get("control_bound"),
            "lhs": report.lhs,
            "rhs": report.rhs,
            "slack": report.slack,
            "eps_q": report.tolerance_used,
            "passed": report.passed,
            "certified": bool(certified),
            "violation": bool(certified and not report.passed),
            "hard_failure": bool(certified and report.hard_failure),
            "ratio": _ratio(report.lhs, report.rhs),
            "tail_sum": tail_sum,
            "note": note,
        }
        self.cases.append(entry)
        return entry

    def skip(self, check, system, n, note):
        self.cases.append({
            "case": len(self.cases), "check": check, "system": system,
            "n": int(n), "kind": "", "k": None, "r": None, "control": "",
            "control_bound": None, "lhs": None, "rhs": None, "slack": None,
            "eps_q": None, "passed": None, "certified": False,
            "violation": False, "hard_failure": False, "ratio": None,
            "tail_sum": None, "note": f"skipped: {note}",
        })


@dataclass(frozen=True)
class CampaignResult:
    config: dict
    cases: list
    aggregates: dict
    summary: dict


def _aggregate(cases):
    agg = {}
    for case in cases:
        if case["passed"] is None:
            continue
        key = f"{case['check']}|{case['kind']}"
        slot = agg.setdefault(key, {
            "cases": 0, "passes": 0, "violations": 0, "hard_failures": 0,
            "worst_slack": np.inf, "max_ratio": None, "mean_ratio": 0.0,
            "_ratio_count": 0,
        })
        slot["cases"] += 1
        slot["passes"] += int(bool(case["passed"]))
        slot["violations"] += int(case["violation"])
        slot["hard_failures"] += int(case["hard_failure"])
        slot["worst_slack"] = min(slot["worst_slack"], case["slack"])
        if case["ratio"] is not None:
            slot["_ratio_count"] += 1
            slot["mean_ratio"] += case["ratio"]
            slot["max_ratio"] = (case["ratio"] if slot["max_ratio"] is None
                                 else max(slot["max_ratio"], case["ratio"]))
    for slot in agg.values():
        if slot["_ratio_count"]:
            slot["mean_ratio"] /= slot["_ratio_count"]
        else:
            slot["mean_ratio"] = None
        del slot["_ratio_count"]
        if not np.isfinite(slot["worst_slack"]):
            slot["worst_slack"] = None
    return agg


def _skip(*args):
    """A judge that logs one skipped case, for a stage that integrates nothing."""
    return lambda log, trajs: log.skip(*args)


def _type2_cases(config, sys_idx, label, sys, k_idx, k):
    """Plan of the error-bound, reachability and observability cases of the
    type-2 reductions at control bound k.  Returns (groups, judge, baseline):
    the `simulate_groups` groups, the judge that logs the cases from their
    runs, and the constant and first sinusoid control for the type-1
    baseline, or None when no reduction could be built."""
    T = config.T
    try:
        pair = type2_gramians(sys, k, delta=config.delta)
        bal = square_root_balance(sys, pair)
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        return [], _skip("error_bound_cor", label, sys.n,
                         f"k={k:.4g}: {type(exc).__name__}: {exc}"), None

    controls = _campaign_controls(sys.m, k, T, [config.seed, sys_idx, k_idx])
    roms = [truncate(bal, r) for r in _campaign_orders(bal.hsv)]
    baseline = controls[1:3]
    zero_B = BilinearSystem.from_matrices(sys.A, np.zeros((sys.n, sys.m)), sys.N, sys.C)
    rng = np.random.default_rng([config.seed, sys_idx, k_idx, 17])
    runs = []
    for x0_idx in range(OBSERV_X0_COUNT):
        x0 = rng.standard_normal(sys.n)
        x0 /= np.linalg.norm(x0)
        runs += [(x0_idx, x0, u) for u in baseline]
    groups = [([sys] + [rom.system for rom in roms], controls, None),
              ([zero_B], [u for _, _, u in runs], [np.array([x0 for _, x0, _ in runs])])]

    def judge(log, trajs):
        (full, *rom_trajs), (free,) = trajs
        for s, u in enumerate(controls):
            for rom, runs_r in zip(roms, rom_trajs):
                thm, cor = check_error_bound(rom, u, full[s], runs_r[s],
                                             context={"system": label})
                tail = float(rom.tail_hsv.sum())
                log.add(cor, label, sys.n, certified=True, tail_sum=tail)
                if rom.bound_distinct < rom.bound_all * (1.0 - 1e-12):
                    # distinct-value bound engaged only for true multiplicities
                    log.add(thm, label, sys.n, certified=True, tail_sum=tail,
                            note="distinct-value bound")
            log.add(check_reach_energy(pair, u, full[s], context={"system": label}),
                    label, sys.n, certified=True)
        for (x0_idx, _, u), traj in zip(runs, free):
            log.add(check_observ_energy(zero_B, pair, u, traj,
                                        context={"system": label, "x0_index": x0_idx}),
                    label, sys.n, certified=True)

    return groups, judge, baseline


def _p2_cases(config, sys_idx, label, sys, k_ref):
    """Plan of the Gronwall envelopes and the mixed (P2, Q1) pair, from one
    P2 solve: (groups, judge)."""
    T = config.T
    try:
        p2 = stochastic_type2_P2(sys, delta=config.delta)
    except (MatrixEquationError, ValueError) as exc:
        notes = (str(exc), f"{type(exc).__name__}: {exc}")

        def judge(log, trajs):
            log.skip("gronwall_P2", label, sys.n, notes[0])
            log.skip("mixed_side_conditions", label, sys.n, notes[1])
        return [], judge

    spikes = bounded_control_suite(sys.m, 3.0, T, [config.seed, sys_idx, 29],
                                   n_sinusoids=1, n_piecewise=1)
    spikes = spikes[2:]  # the large sinusoid and spike signals
    groups = [([sys], spikes, None)]
    try:
        bal_m = square_root_balance(sys, mixed_pair_from_P2(sys, p2))
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        mixed = None
        note = f"{type(exc).__name__}: {exc}"
    else:
        rom_m = truncate(bal_m, _campaign_orders(bal_m.hsv)[0])
        small = bounded_control_suite(sys.m, 1e-3 * k_ref, T, [config.seed, sys_idx, 31],
                                      n_sinusoids=1, n_piecewise=0)[1:]
        large = bounded_control_suite(sys.m, 3.0 * k_ref, T, [config.seed, sys_idx, 37],
                                      n_sinusoids=0, n_piecewise=1)[2:]
        mixed = small + large
        groups.append(([bal_m.system, rom_m.system], mixed, None))

    def judge(log, trajs):
        for u, traj in zip(spikes, trajs[0][0]):
            log.add(check_gronwall_P2(p2[0], u, traj, context={"system": label}),
                    label, sys.n, certified=True)
        if mixed is None:
            log.skip("mixed_side_conditions", label, sys.n, note)
            return
        for u, traj_full, traj_rom in zip(mixed, *trajs[1]):
            rep_m = check_mixed_side_conditions(rom_m, u, traj_full, traj_rom,
                                                context={"system": label})
            log.add(rep_m, label, sys.n, certified=False,
                    note="side conditions" if rep_m.passed else "side conditions not met")
            if rep_m.passed:
                lhs, rhs = rep_m.context["error_lhs"], rep_m.context["error_rhs"]
                log.add(_report("error_bound_cor", lhs, rhs,
                                rep_m.tolerance_used + _floor(lhs, rhs), dict(rep_m.context)),
                        label, sys.n, certified=True, tail_sum=float(rom_m.tail_hsv.sum()),
                        note="mixed pair under small control")

    return groups, judge


def _type1_cases(label, sys, controls):
    """Plan of the uncertified type-1 baseline under `controls`: (groups,
    judge).  The full model runs beside the reduced one, so the stage needs
    no other stage's runs."""
    try:
        bal1 = square_root_balance(sys, type1_gramians(sys))
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        return [], _skip("error_bound_cor", label, sys.n,
                         f"type1 baseline: {type(exc).__name__}: {exc}")
    rom1 = truncate(bal1, _campaign_orders(bal1.hsv)[0])

    def judge(log, trajs):
        for u, traj_full, traj_rom in zip(controls, *trajs[0]):
            _, rep1 = check_error_bound(rom1, u, traj_full, traj_rom,
                                        context={"system": label})
            log.add(rep1, label, sys.n, certified=False,
                    tail_sum=float(rom1.tail_hsv.sum()), note="no certified bound")

    return [([sys, rom1.system], controls, None)], judge


def _system_cases(config, sys_idx, label, sys):
    """The case entries of `sys`, the `sys_idx`-th system of the campaign,
    numbered from 0.  They depend on the arguments alone, so the systems of a
    campaign can run in any order and in any process.

    Three phases: the stage helpers plan every Gramian solve, reduction,
    control and initial state; one `simulate_groups` call integrates all of
    the system's runs; each stage's judge then logs its cases, or its skip,
    in stage order."""
    log = _CaseLog()
    if sys.n < 2:
        log.skip("error_bound_cor", label, sys.n, f"n = {sys.n}: no order to truncate")
        return log.cases
    rep = stability_report(sys)
    if rep.ms_abscissa >= 0.0 or rep.k_max_estimate <= 0.0:
        log.skip("error_bound_cor", label, sys.n, "system not mean-square stable")
        return log.cases
    stages, first = [], None
    for k_idx, frac in enumerate(K_FRACTIONS):
        k = frac * rep.k_max_estimate
        groups, judge, baseline = _type2_cases(config, sys_idx, label, sys, k_idx, k)
        stages.append((groups, judge))
        if first is None and baseline is not None:
            first = (k, baseline)
    if first is not None:
        k_ref, controls = first
        stages.append(_p2_cases(config, sys_idx, label, sys, k_ref))
        stages.append(_type1_cases(label, sys, controls))

    runs = iter(simulate_groups([group for groups, _ in stages for group in groups],
                                config.T, config.h))
    for groups, judge in stages:
        judge(log, [next(runs) for _ in groups])
    return log.cases


class CampaignWorkerError(RuntimeError):
    """A campaign worker process died before it returned its system's cases."""


# thread-count getters of OpenBLAS, in its plain build and in the builds
# that numpy and scipy ship
_OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads",
                            "scipy_openblas_get_num_threads64_")


def _blas_threads():
    """The most threads any OpenBLAS loaded in this process uses per call; 1
    where none is loaded or it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return 1
    threads = 1
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = max(threads, getter())
                break
    return threads


def _worker_count(n_systems):
    """One worker process per CPU this process may run on, at most one per
    system.  Each worker brings the BLAS thread pool of its parent, so the
    CPUs are divided by the BLAS threads: with a multi-threaded BLAS on two
    CPUs the systems run in this process.  They also do where `fork` or
    `os.sched_getaffinity` is missing, and in a process with other Python
    threads, as a thread may hold a lock that the forked child needs."""
    import multiprocessing
    import threading

    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(n_systems, max(1, len(os.sched_getaffinity(0)) // _blas_threads()))


def _cases_per_system(config, systems):
    """`_system_cases` of every system, in list order.  With more than one
    worker they run in a pool of forked processes, the largest n submitted
    first.  The exception raised is that of the first failing system in list
    order, as in a serial run; the systems after a failing one that have not
    started are cancelled."""
    workers = _worker_count(len(systems))
    if workers <= 1:
        return [_system_cases(config, i, label, sys)
                for i, (label, sys) in enumerate(systems)]
    import multiprocessing
    from concurrent import futures

    pool = futures.ProcessPoolExecutor(workers,
                                       mp_context=multiprocessing.get_context("fork"))
    try:
        jobs = [None] * len(systems)
        for i in sorted(range(len(systems)), key=lambda j: -systems[j][1].n):
            jobs[i] = pool.submit(_system_cases, config, i, *systems[i])
        pending = set(jobs)
        while pending:
            done, pending = futures.wait(pending, return_when=futures.FIRST_EXCEPTION)
            failed = [i for i, job in enumerate(jobs) if job in done
                      and not job.cancelled() and job.exception() is not None]
            for job in jobs[min(failed, default=len(jobs)) + 1:]:
                job.cancel()
        return [job.result() for job in jobs]
    except futures.BrokenExecutor as exc:
        raise CampaignWorkerError(f"a campaign worker process died: {exc}") from exc
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the running workers


def benchmark_campaign(config: CampaignConfig, systems) -> CampaignResult:
    """Run every check on each (label, system) pair of `systems` (the default
    grid is `build_campaign_systems(config.seed)`) over the fixed bounds,
    orders and controls.  Individual case failures are recorded and the
    campaign continues; the result is fully determined by the config and the
    systems.  Each system is planned, integrated in one `simulate_groups`
    call and then judged (`_system_cases`).

    The systems run in forked worker processes, so nothing is imported
    again: one per available CPU divided by the BLAS threads, at most one per
    system, and none where that leaves one worker (the systems then run in
    this process).  The cases are numbered in list order, so the report is
    byte-identical to a serial run.  The exception of the first failing
    system in list order propagates, as in a serial run, and the systems
    after it that have not started are cancelled; a worker that dies raises
    CampaignWorkerError.  No worker outlives the call."""
    cases = []
    for system_cases in _cases_per_system(config, list(systems)):
        for entry in system_cases:
            entry["case"] = len(cases)
            cases.append(entry)

    aggregates = _aggregate(cases)
    scored = [c for c in cases if c["passed"] is not None]
    summary = {
        "total_cases": len(cases),
        "scored_cases": len(scored),
        "certified_cases": sum(c["certified"] for c in scored),
        "certified_violations": sum(c["violation"] for c in scored),
        "certified_hard_failures": sum(c["hard_failure"] for c in scored),
        "skipped": len(cases) - len(scored),
    }
    return CampaignResult(config=asdict(config), cases=cases,
                          aggregates=aggregates, summary=summary)


def campaign_to_json(result: CampaignResult) -> str:
    payload = {
        "config": result.config,
        "summary": result.summary,
        "aggregates": result.aggregates,
        "cases": result.cases,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def campaign_to_csv(result: CampaignResult) -> str:
    """Flat table of the output-error cases for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", "system", "kind", "k", "r", "control",
                     "tail_sum", "measured_error", "bound", "ratio",
                     "slack", "eps_q", "passed", "certified"])
    for case in result.cases:
        if case["check"] not in ("error_bound_thm", "error_bound_cor"):
            continue
        if case["passed"] is None:
            continue
        writer.writerow([case["case"], case["system"], case["kind"], case["k"],
                         case["r"], case["control"], case["tail_sum"],
                         case["lhs"], case["rhs"], case["ratio"],
                         case["slack"], case["eps_q"], case["passed"],
                         case["certified"]])
    return buf.getvalue()
