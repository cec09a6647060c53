"""Empirical certification of the reduction bounds on simulated trajectories.

Checks implemented:

* error_bound_thm / error_bound_cor: ||y - y_r||_{L2_T} against
  2 * (sum of distinct / all truncated Hankel values) * ||u||_{L2_T},
  for controls bounded pointwise by the k the Gramians were built with.
* reach_energy: per eigenpair (lambda_j, p_j) of the reachability Gramian,
  lambda_j^{-1/2} * sup_t |<x(t), p_j>| <= ||u||_{L2_T} from x(0) = 0.
* observ_energy: for a model with B = 0, the output energy int ||y||^2 dt
  against x0^T Q x0.
* gronwall_P2: x(t)^T P2^-1 x(t) <= (int_0^t ||u||^2) * exp(int_0^t ||u||^2)
  at every grid point, with no bound on the control.
* mixed_side_conditions: the two endpoint-versus-integral inequalities that
  the (P2, Q1) pair needs before its error bound applies.  Where they hold,
  the campaign judges that bound with `check_error_bound`, the one judge of
  every error bound.

Each check judges the trajectories its caller integrated and reports the T
and h of their grid and the control that they carry.  Every check carries a
quadrature slack tolerance estimated per run; a hard failure is declared
only when the slack is exceeded tenfold.  The campaign driver runs a fixed
grid of control bounds, orders and controls over a given list of systems
(by default the seeded families of `build_campaign_systems`), one system per
task in a pool of forked worker processes, and aggregates pass rates, worst
slacks and bound tightness ratios per Gramian kind.  A system's cases are
planned as a table of rows, each a group of runs with the judge of their
cases or a skipped stage, from the Gramian pairs that one planner solves;
one executor integrates every row in one `simulate_groups` call and logs
the cases in table order.  The same executor runs `reduction_cases`, the
plan of `bilbt verify` for one given reduction: its type-2 stage and the
Gronwall row, planned as for the first system of a campaign.  The type-1
pair and the mixed pair (P2, Q1) share one factored operator of (A, N).
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
from .gramians import GramianPair, _mixed_pair, _operator, _type1_pair, _type2_pair
from .kronecker import ms_abscissa, spectral_abscissa
from .matrix_equations import MatrixEquationError, invert_spd
from .simulation import (
    Trajectory,
    bounded_control_suite,
    cumulative_trapezoid,
    l2_richardson,
    quadrature_slack,
    simulate_groups,
    stride2_points,
    trapezoid_pair,
)
from .system import BilinearSystem, stability_report

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


def _report(check, lhs, rhs, eps, context):
    slack = rhs - lhs
    return BoundCheckReport(check=check, lhs=float(lhs), rhs=float(rhs),
                            slack=float(slack), tolerance_used=float(eps),
                            passed=bool(slack >= -eps), context=context)


def _floor(*scales):
    return EPS_FLOOR_REL * (1.0 + sum(abs(s) for s in scales))


def _require_control_bound(kind, k, traj: Trajectory):
    u = traj.control
    # relative above k = 1: a bound built as k times a unit direction may
    # round one ulp above k
    if kind == "type2_bilinear" and u.k_bound > k + 1e-12 * max(1.0, k):
        raise PreconditionViolation(
            f"control bound {u.k_bound:.6g} exceeds the Gramian bound k={k:.6g}; "
            "the certified bound does not apply"
        )


def _require_same_run(traj_full: Trajectory, traj_rom: Trajectory):
    if not (np.array_equal(traj_full.grid, traj_rom.grid)
            and np.array_equal(traj_full.inputs, traj_rom.inputs)):
        raise ValueError("full and reduced runs are not on the same grid under the same control")


def _run_context(traj: Trajectory, **kw):
    """The run's T, h and control, and `kw`."""
    return {"T": float(traj.grid[-1]), "h": traj.h, "control": traj.control.label, **kw}


def check_error_bound(rom: ReducedModel, traj_full: Trajectory, traj_rom: Trajectory):
    """Compare the output error of a reduction against its certified constants.

    `traj_full` and `traj_rom` are the full model and `rom.system` under one
    control from zero, on one grid.  Returns two reports: the sharper
    distinct-value constant first, the plain tail-sum constant second.  For a
    reduction from the control-bounded pair the control must respect the
    bound k stored in the reduction.
    """
    _require_control_bound(rom.gramian_kind, rom.k, traj_full)
    _require_same_run(traj_full, traj_rom)
    diff = traj_full.outputs - traj_rom.outputs
    lhs, lhs_coarse = l2_richardson(diff, traj_full.grid)
    u_norm, u_coarse = l2_richardson(traj_full.inputs, traj_full.grid)

    context = _run_context(traj_full, control_bound=float(traj_full.control.k_bound),
                           r=int(rom.r), kind=rom.gramian_kind, k=float(rom.k))
    reports = []
    for check, bound in (("error_bound_thm", rom.bound_distinct),
                         ("error_bound_cor", rom.bound_all)):
        rhs = bound * u_norm
        eps = quadrature_slack((lhs, lhs_coarse), (rhs, bound * u_coarse),
                               floor=_floor(lhs, rhs))
        reports.append(_report(check, lhs, rhs, eps, dict(context)))
    return tuple(reports)


def check_reach_energy(pair: GramianPair, traj: Trajectory) -> BoundCheckReport:
    """Worst-direction reachability energy bound on `traj`, a run from
    x(0) = 0: for every eigenpair of P the scaled peak component must stay
    below ||u||_{L2_T}."""
    _require_control_bound(pair.kind, pair.k, traj)
    w, vecs = np.linalg.eigh(0.5 * (pair.P + pair.P.T))
    if w.min() <= 0.0:
        raise MatrixEquationError(
            f"reachability Gramian not positive definite (lambda_min = {w.min():.3e})"
        )
    proj = traj.states @ vecs
    scaled_peaks = np.abs(proj).max(axis=0) / np.sqrt(w)
    worst = int(np.argmax(scaled_peaks))
    lhs = float(scaled_peaks[worst])
    rhs, rhs_coarse = l2_richardson(traj.inputs, traj.grid)
    eps = quadrature_slack((rhs, rhs_coarse), floor=_floor(lhs, rhs))
    context = _run_context(traj, kind=pair.kind, k=float(pair.k),
                           worst_eigenvalue=float(w[worst]))
    return _report("reach_energy", lhs, rhs, eps, context)


def check_observ_energy(sys: BilinearSystem, pair: GramianPair,
                        traj: Trajectory) -> BoundCheckReport:
    """Output energy of `traj`, a run of `sys`, against the quadratic form of
    Q at x0 = traj.states[0]: int ||y||^2 dt <= x0^T Q x0, certified for
    B = 0 only (PreconditionViolation otherwise)."""
    _require_control_bound(pair.kind, pair.k, traj)
    if np.any(sys.B != 0.0):
        raise PreconditionViolation("the observability energy bound needs B = 0")
    x0 = traj.states[0]
    lhs, lhs_coarse = trapezoid_pair((traj.outputs ** 2).sum(axis=1), traj.grid)
    rhs = float(x0 @ (0.5 * (pair.Q + pair.Q.T)) @ x0)
    eps = quadrature_slack((lhs, lhs_coarse), floor=_floor(lhs, rhs))
    context = _run_context(traj, kind=pair.kind, k=float(pair.k))
    return _report("observ_energy", lhs, rhs, eps, context)


def check_gronwall_P2(P2, traj: Trajectory) -> BoundCheckReport:
    """Exponential-in-control-energy bound on x(t)^T P2^-1 x(t) along `traj`,
    a run from x(0) = 0; holds for arbitrary (unbounded) controls."""
    X2 = invert_spd(P2)
    lhs_t = np.einsum("ki,ij,kj->k", traj.states, X2, traj.states)
    usq = (traj.inputs ** 2).sum(axis=1)
    cum = cumulative_trapezoid(usq, traj.grid)
    rhs_t = cum * np.exp(cum)

    coarse = stride2_points(usq.size - 1)
    coarse_grid = traj.grid[coarse]
    cum_coarse = np.interp(traj.grid, coarse_grid,
                           cumulative_trapezoid(usq[coarse], coarse_grid))
    rhs_coarse_t = cum_coarse * np.exp(cum_coarse)

    worst = int(np.argmax(lhs_t - rhs_t))
    lhs, rhs = float(lhs_t[worst]), float(rhs_t[worst])
    eps = quadrature_slack((rhs, float(rhs_coarse_t[worst])),
                           floor=_floor(lhs, rhs))
    context = _run_context(traj, worst_time=float(traj.grid[worst]))
    # the maximising grid point decides: it passes iff every point passes
    return _report("gronwall_P2", lhs, rhs, eps, context)


def check_mixed_side_conditions(rom: ReducedModel, traj_full: Trajectory,
                                traj_rom: Trajectory) -> BoundCheckReport:
    """Evaluate the two side conditions the (P2, Q1) reduction needs: the
    endpoint quadratic forms (error-weighted by diag(hsv), sum-weighted by its
    inverse) must dominate the corresponding control-energy integrals.  When
    both hold the output error bound applies; `check_error_bound` judges it
    on the same runs.  `traj_full` runs the balanced realization of
    `rom.hsv` that `rom` truncates, `traj_rom` runs `rom.system`, both under
    one control from zero on one grid."""
    if rom.gramian_kind != "mixed_Q1_P2":
        raise ValueError("reduction was not built from the mixed (P2, Q1) pair")
    _require_same_run(traj_full, traj_rom)
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
    context = _run_context(traj_full, control_bound=float(traj_full.control.k_bound),
                           r=int(rom.r), kind=rom.gramian_kind, k=float(rom.k),
                           condition_error_endpoint=end_err,
                           condition_error_integral=int_err,
                           condition_sum_endpoint=end_sum,
                           condition_sum_integral=int_sum)
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


class _CaseLog:
    """The case entries of one system, numbered from 0."""

    def __init__(self, system, n):
        self.system, self.n, self.cases = system, int(n), []

    def _append(self, check, **fields):
        self.cases.append({
            "case": len(self.cases), "check": check, "system": self.system,
            "n": self.n, "kind": "", "k": None, "r": None, "control": "",
            "control_bound": None, "lhs": None, "rhs": None, "slack": None,
            "eps_q": None, "passed": None, "certified": False,
            "violation": False, "hard_failure": False, "ratio": None,
            "tail_sum": None, "note": "", **fields})

    def add(self, report: BoundCheckReport, certified, tail_sum=None, note=""):
        context, lhs, rhs = report.context, report.lhs, report.rhs
        self._append(
            report.check, kind=context.get("kind", ""),
            k=context.get("k", 0.0),
            r=context.get("r"), control=context.get("control", ""),
            control_bound=context.get("control_bound"), lhs=lhs, rhs=rhs,
            slack=report.slack, eps_q=report.tolerance_used, passed=report.passed,
            certified=certified, violation=certified and not report.passed,
            hard_failure=certified and report.hard_failure,
            ratio=float(lhs / rhs) if rhs > 1e-300 else None, tail_sum=tail_sum, note=note)

    def skip(self, check, note):
        self._append(check, note=f"skipped: {note}")


@dataclass(frozen=True)
class CampaignResult:
    config: dict
    cases: list
    aggregates: dict
    summary: dict


def _aggregate(cases):
    """Counts, worst slack and ratios of the scored cases per check and kind."""
    groups = {}
    for case in cases:
        if case["passed"] is not None:
            groups.setdefault(f"{case['check']}|{case['kind']}", []).append(case)
    agg = {}
    for key, group in groups.items():
        ratios = [case["ratio"] for case in group if case["ratio"] is not None]
        worst = min([np.inf] + [case["slack"] for case in group])
        agg[key] = {
            "cases": len(group),
            "passes": sum(bool(case["passed"]) for case in group),
            "violations": sum(case["violation"] for case in group),
            "hard_failures": sum(case["hard_failure"] for case in group),
            "worst_slack": worst if np.isfinite(worst) else None,
            "max_ratio": max(ratios, default=None),
            "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        }
    return agg


def _gramian_pairs(sys, ks, delta):
    """Every Gramian pair of the campaign cases of `sys`, each the pair or the
    exception its solve raised: (the type-2 pairs at the bounds `ks`, one
    operator each; the mixed pair (P2, Q1); the type-1 pair).  The last two
    share one factored operator of (A, N)."""
    def solved(solve, *args):
        try:
            return solve(sys, *args)
        except (MatrixEquationError, ValueError) as exc:
            return exc

    unshifted = _operator(sys, 0.0)
    return ([solved(_type2_pair, k, delta, _operator(sys, k)) for k in ks],
            solved(_mixed_pair, delta, unshifted), solved(_type1_pair, unshifted))


def _balanced(sys, pair):
    """`sys` balanced by `pair`, or the exception of the pair's solve or of
    the balancing."""
    if isinstance(pair, Exception):
        return pair
    try:
        return square_root_balance(sys, pair)
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        return exc


def _type2_rows(config, seed_tags, sys, pair, roms):
    """Rows of the error-bound and reachability cases of the reductions
    `roms` from the type-2 pair, under the campaign's controls at the pair's
    bound, and of the observability cases of the pair from two unit initial
    states.  `seed_tags` seed the controls and the initial states."""
    controls = _campaign_controls(sys.m, pair.k, config.T, seed_tags)

    def judge(log, full, *rom_runs):
        for rom, run in zip(roms, rom_runs):
            thm, cor = check_error_bound(rom, full, run)
            tail = float(rom.tail_hsv.sum())
            log.add(cor, certified=True, tail_sum=tail)
            if rom.bound_distinct < rom.bound_all * (1.0 - 1e-12):
                # distinct-value bound engaged only for true multiplicities
                log.add(thm, certified=True, tail_sum=tail, note="distinct-value bound")
        log.add(check_reach_energy(pair, full), certified=True)

    zero_B = BilinearSystem.from_matrices(sys.A, np.zeros((sys.n, sys.m)), sys.N, sys.C)

    def judge_free(log, run):
        log.add(check_observ_energy(zero_B, pair, run), certified=True)

    # the constant and the first sinusoid, from each initial state
    free = controls[1:3]
    rng = np.random.default_rng(seed_tags + [17])
    x0s = [x0 / np.linalg.norm(x0) for x0 in rng.standard_normal((OBSERV_X0_COUNT, sys.n))]
    return [([sys] + [rom.system for rom in roms], controls, None, judge),
            ([zero_B], free * OBSERV_X0_COUNT, [np.repeat(x0s, len(free), axis=0)],
             judge_free)]


def _gronwall_rows(config, seed_tags, sys, P2):
    """The row of the Gronwall envelopes on P2 under large controls."""
    spikes = bounded_control_suite(sys.m, 3.0, config.T, seed_tags + [29],
                                   n_sinusoids=1, n_piecewise=1)[2:]  # the large ones

    def judge(log, run):
        log.add(check_gronwall_P2(P2, run), certified=True)

    return [([sys], spikes, None, judge)]


def _p2_rows(config, sys_idx, sys, k_ref, pair):
    """Rows of the Gronwall envelopes on P2 and of the side conditions of
    the mixed pair (P2, Q1) under controls far below and far above k_ref."""
    if isinstance(pair, Exception):
        return [("gronwall_P2", str(pair)),
                ("mixed_side_conditions", f"{type(pair).__name__}: {pair}")]
    rows = _gronwall_rows(config, [config.seed, sys_idx], sys, pair.P)
    bal = _balanced(sys, pair)
    if isinstance(bal, Exception):
        return rows + [("mixed_side_conditions", f"{type(bal).__name__}: {bal}")]
    rom = truncate(bal, _campaign_orders(bal.hsv)[0])
    T = config.T
    small = bounded_control_suite(sys.m, 1e-3 * k_ref, T, [config.seed, sys_idx, 31],
                                  n_sinusoids=1, n_piecewise=0)[1:]
    large = bounded_control_suite(sys.m, 3.0 * k_ref, T, [config.seed, sys_idx, 37],
                                  n_sinusoids=0, n_piecewise=1)[2:]

    def judge(log, full, reduced):
        rep = check_mixed_side_conditions(rom, full, reduced)
        log.add(rep, certified=False,
                note="side conditions" if rep.passed else "side conditions not met")
        if rep.passed:
            log.add(check_error_bound(rom, full, reduced)[1], certified=True,
                    tail_sum=float(rom.tail_hsv.sum()), note="mixed pair under small control")

    return rows + [([bal.system, rom.system], small + large, None, judge)]


def _type1_rows(sys, controls, pair):
    """Rows of the uncertified type-1 baseline under `controls`; the full
    model runs beside the reduced one."""
    bal = _balanced(sys, pair)
    if isinstance(bal, Exception):
        return [("error_bound_cor", f"type1 baseline: {type(bal).__name__}: {bal}")]
    rom = truncate(bal, _campaign_orders(bal.hsv)[0])

    def judge(log, full, reduced):
        log.add(check_error_bound(rom, full, reduced)[1], certified=False,
                tail_sum=float(rom.tail_hsv.sum()), note="no certified bound")

    return [([sys, rom.system], controls, None, judge)]


def _system_rows(config, sys_idx, sys):
    """The plan of the cases of `sys`, the `sys_idx`-th system of the
    campaign, as a table of rows in case order.  A row is either
    (models, controls, x0, judge), a `simulate_groups` group whose judge
    logs the cases of one control from that control's runs, or (check, note)
    for a stage that could not be planned.  The type-2 stages come first,
    one per bound, each with the reductions at `_campaign_orders`; the mixed
    and type-1 stages follow when some type-2 reduction was built, at its
    bound and under its constant and first sinusoid control."""
    if sys.n < 2:
        return [("error_bound_cor", f"n = {sys.n}: no order to truncate")]
    rep = stability_report(sys)
    if rep.ms_abscissa >= 0.0 or rep.k_max_estimate <= 0.0:
        return [("error_bound_cor", "system not mean-square stable")]
    ks = [frac * rep.k_max_estimate for frac in K_FRACTIONS]
    type2, mixed, type1 = _gramian_pairs(sys, ks, config.delta)
    rows, built = [], []
    for k_idx, (k, pair) in enumerate(zip(ks, type2)):
        bal = _balanced(sys, pair)
        if isinstance(bal, Exception):
            rows.append(("error_bound_cor", f"k={k:.4g}: {type(bal).__name__}: {bal}"))
            continue
        roms = [truncate(bal, r) for r in _campaign_orders(bal.hsv)]
        stage = _type2_rows(config, [config.seed, sys_idx, k_idx], sys, pair, roms)
        built.append((k, stage[0][1][1:3]))
        rows += stage
    if built:
        k_ref, baseline = built[0]
        rows += _p2_rows(config, sys_idx, sys, k_ref, mixed) + _type1_rows(sys, baseline, type1)
    return rows


def _run_rows(config, rows, log):
    """The cases of the table `rows`, logged into `log`: one
    `simulate_groups` call integrates every group row, then the cases are
    logged in row order, a judge call per control of a row and a skip per
    skip row."""
    runs = iter(simulate_groups([row[:3] for row in rows if len(row) == 4],
                                config.T, config.h))
    for row in rows:
        if len(row) == 2:
            log.skip(*row)
            continue
        *_, judge = row
        for trajs in zip(*next(runs)):
            judge(log, *trajs)
    return log.cases


def _system_cases(config, sys_idx, label, sys):
    """The case entries of `sys`, the `sys_idx`-th system of the campaign,
    numbered from 0.  They depend on the arguments alone, so the systems of a
    campaign can run in any order and in any process."""
    return _run_rows(config, _system_rows(config, sys_idx, sys), _CaseLog(label, sys.n))


def reduction_cases(config, label, sys, pair, rom, P2):
    """The case entries of one type-2 reduction `rom` of `sys` (named
    `label`) from `pair`, as the campaign plans them for its first system at
    `config.seed`: the type-2 stage at the pair's bound with `rom` as its one
    reduction, then the Gronwall envelopes on P2, the P of the type-2 pair
    at k = 0.  One executor runs them, as it runs a campaign system."""
    tags = [config.seed, 0]
    rows = (_type2_rows(config, tags + [0], sys, pair, [rom])
            + _gronwall_rows(config, tags, sys, P2))
    return _run_rows(config, rows, _CaseLog(label, sys.n))


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
