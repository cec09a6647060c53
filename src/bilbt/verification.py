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

Every check carries a quadrature slack tolerance estimated per run; a hard
failure is declared only when the slack is exceeded tenfold.  The campaign
driver runs a fixed grid of control bounds, orders and controls over a given
list of systems (by default the seeded families of `build_campaign_systems`)
and aggregates pass rates, worst slacks and bound tightness ratios per
Gramian kind.  Reductions based on the plain (unshifted) Gramian pair carry
no certified bound and are included as empirical baselines only.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .balancing import (
    BalancedRealization,
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
    coarse_trapezoid,
    cumulative_trapezoid,
    l2_richardson,
    quadrature_slack,
    simulate,
    simulate_batch,
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


def _base_context(context, **kw):
    out = dict(context or {})
    for key, val in kw.items():
        out.setdefault(key, val)
    return out


def check_error_bound(full: BilinearSystem, rom: ReducedModel, u: ControlSignal,
                      T, h, traj_full: Trajectory = None, traj_rom: Trajectory = None,
                      context=None):
    """Compare the output error of a reduction against its certified constants.

    Returns two reports: the sharper distinct-value constant first, the plain
    tail-sum constant second.  Both start from zero initial conditions; for a
    reduction from the control-bounded pair the control must respect the
    bound k stored in the reduction.
    """
    if rom.gramian_kind == "type2_bilinear" and u.k_bound > rom.k + 1e-12:
        raise PreconditionViolation(
            f"control bound {u.k_bound:.6g} exceeds the Gramian bound k={rom.k:.6g}; "
            "the certified error bound does not apply"
        )
    if traj_full is None:
        traj_full = simulate(full, np.zeros(full.n), u, T, h)
    if traj_rom is None:
        traj_rom = simulate(rom.system, np.zeros(rom.r), u, T, h)
    diff = traj_full.outputs - traj_rom.outputs
    lhs, lhs_coarse = l2_richardson(diff, traj_full.grid)
    u_norm, u_coarse = l2_richardson(traj_full.inputs, traj_full.grid)

    context = _base_context(context, T=float(T), h=float(h), control=u.label,
                            control_bound=float(u.k_bound), r=int(rom.r),
                            kind=rom.gramian_kind, k=float(rom.k))
    reports = []
    for check, bound in (("error_bound_thm", rom.bound_distinct),
                         ("error_bound_cor", rom.bound_all)):
        rhs = bound * u_norm
        eps = quadrature_slack((lhs, lhs_coarse),
                               (bound * u_norm, bound * u_coarse),
                               floor=_floor(lhs, rhs))
        reports.append(_report(check, lhs, rhs, eps, dict(context)))
    return tuple(reports)


def check_reach_energy(sys: BilinearSystem, pair: GramianPair, u: ControlSignal,
                       T, h, traj: Trajectory = None, context=None) -> BoundCheckReport:
    """Worst-direction reachability energy bound from x(0) = 0: for every
    eigenpair of P the scaled peak component must stay below ||u||_{L2_T}."""
    if pair.kind == "type2_bilinear" and u.k_bound > pair.k + 1e-12:
        raise PreconditionViolation(
            f"control bound {u.k_bound:.6g} exceeds the Gramian bound k={pair.k:.6g}"
        )
    w, vecs = np.linalg.eigh(0.5 * (pair.P + pair.P.T))
    if w.min() <= 0.0:
        raise MatrixEquationError(
            f"reachability Gramian singular after clamp (lambda_min = {w.min():.3e})"
        )
    if traj is None:
        traj = simulate(sys, np.zeros(sys.n), u, T, h)
    proj = traj.states @ vecs
    scaled_peaks = np.abs(proj).max(axis=0) / np.sqrt(w)
    worst = int(np.argmax(scaled_peaks))
    lhs = float(scaled_peaks[worst])
    rhs, rhs_coarse = l2_richardson(traj.inputs, traj.grid)
    eps = quadrature_slack((rhs, rhs_coarse), floor=_floor(lhs, rhs))
    context = _base_context(context, T=float(T), h=float(h), control=u.label,
                            kind=pair.kind, k=float(pair.k),
                            worst_eigenvalue=float(w[worst]))
    return _report("reach_energy", lhs, rhs, eps, context)


def check_observ_energy(sys: BilinearSystem, pair: GramianPair, x0,
                        u: ControlSignal, T, h, traj: Trajectory = None,
                        context=None) -> BoundCheckReport:
    """Output energy against the quadratic form of Q.

    Strict pass/fail requires B = 0 (then int ||y||^2 dt <= x0^T Q x0); for
    B != 0 the cross-term 2 int x^T Q B u dt is added to the right-hand side
    and the report is informational."""
    if pair.kind == "type2_bilinear" and u.k_bound > pair.k + 1e-12:
        raise PreconditionViolation(
            f"control bound {u.k_bound:.6g} exceeds the Gramian bound k={pair.k:.6g}"
        )
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    if traj is None:
        traj = simulate(sys, x0, u, T, h)
    Q = 0.5 * (pair.Q + pair.Q.T)
    ysq = (traj.outputs ** 2).sum(axis=1)
    lhs = float(np.trapezoid(ysq, traj.grid))
    lhs_coarse = float(coarse_trapezoid(ysq, traj.grid))
    rhs = float(x0 @ Q @ x0)
    rhs_coarse = rhs
    informational = bool(np.any(sys.B != 0.0))
    if informational:
        cross = 2.0 * np.einsum("ki,ij,kj->k", traj.states, Q @ sys.B, traj.inputs)
        rhs += float(np.trapezoid(cross, traj.grid))
        rhs_coarse += float(coarse_trapezoid(cross, traj.grid))
    eps = quadrature_slack((lhs, lhs_coarse), (rhs, rhs_coarse),
                           floor=_floor(lhs, rhs))
    context = _base_context(context, T=float(T), h=float(h), control=u.label,
                            kind=pair.kind, k=float(pair.k),
                            informational=informational)
    return _report("observ_energy", lhs, rhs, eps, context)


def check_gronwall_P2(sys: BilinearSystem, P2, u: ControlSignal, T, h,
                      traj: Trajectory = None, context=None) -> BoundCheckReport:
    """Exponential-in-control-energy bound on x(t)^T P2^-1 x(t) from x(0) = 0;
    holds for arbitrary (unbounded) controls."""
    X2, _cond = invert_spd(P2)
    if traj is None:
        traj = simulate(sys, np.zeros(sys.n), u, T, h)
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
    context = _base_context(context, T=float(T), h=float(h), control=u.label,
                            worst_time=float(traj.grid[worst]))
    # the maximising grid point decides: it passes iff every point passes
    return _report("gronwall_P2", lhs, rhs, eps, context)


def check_mixed_side_conditions(bal: BalancedRealization, rom: ReducedModel,
                                u: ControlSignal, T, h, traj_full: Trajectory = None,
                                traj_rom: Trajectory = None, context=None) -> BoundCheckReport:
    """Evaluate the two side conditions the (P2, Q1) reduction needs: the
    endpoint quadratic forms (error-weighted by diag(hsv), sum-weighted by its
    inverse) must dominate the corresponding control-energy integrals.  When
    both hold the output error bound applies; the bound numbers are reported
    either way (informational when the conditions fail)."""
    if rom.gramian_kind != "mixed_Q1_P2":
        raise ValueError("reduction was not built from the mixed (P2, Q1) pair")
    if traj_full is None:
        traj_full = simulate(bal.system, np.zeros(bal.system.n), u, T, h)
    if traj_rom is None:
        traj_rom = simulate(rom.system, np.zeros(rom.r), u, T, h)
    r = rom.r
    w = np.asarray(bal.hsv, dtype=float)
    x, xr = traj_full.states, traj_rom.states
    z_err = np.hstack([x[:, :r] - xr, x[:, r:]])
    z_sum = np.hstack([x[:, :r] + xr, x[:, r:]])
    usq = (traj_full.inputs ** 2).sum(axis=1)

    q_err = (z_err ** 2 * w).sum(axis=1)
    q_sum = (z_sum ** 2 / w).sum(axis=1)
    end_err, end_sum = float(q_err[-1]), float(q_sum[-1])
    int_err = float(np.trapezoid(q_err * usq, traj_full.grid))
    int_sum = float(np.trapezoid(q_sum * usq, traj_full.grid))
    int_err_c = float(coarse_trapezoid(q_err * usq, traj_full.grid))
    int_sum_c = float(coarse_trapezoid(q_sum * usq, traj_full.grid))

    lhs = max(int_err - end_err, int_sum - end_sum)
    rhs = 0.0
    eps = quadrature_slack((int_err, int_err_c), (int_sum, int_sum_c),
                           floor=_floor(end_err, end_sum))

    err, _ = l2_richardson(traj_full.outputs - traj_rom.outputs, traj_full.grid)
    u_norm, _ = l2_richardson(traj_full.inputs, traj_full.grid)
    bound = rom.bound_all * u_norm
    context = _base_context(context, T=float(T), h=float(h), control=u.label,
                            control_bound=float(u.k_bound), r=int(rom.r),
                            kind=rom.gramian_kind,
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


def _type2_cases(log, config, sys_idx, label, sys, k_idx, k):
    """Error-bound, reachability and observability cases of the type-2
    reductions at control bound k.  Returns (constant and first sinusoid
    control, their full-model trajectories) for the type-1 baseline, or None
    when no reduction could be built."""
    T, h = config.T, config.h
    try:
        pair = type2_gramians(sys, k, delta=config.delta)
        bal = square_root_balance(sys, pair)
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        log.skip("error_bound_cor", label, sys.n,
                 f"k={k:.4g}: {type(exc).__name__}: {exc}")
        return None

    controls = _campaign_controls(sys.m, k, T, [config.seed, sys_idx, k_idx])
    roms = [truncate(bal, r) for r in _campaign_orders(bal.hsv)]
    full, *rom_trajs = simulate_batch([sys] + [rom.system for rom in roms],
                                      controls, T, h)
    for s, u in enumerate(controls):
        for rom, trajs in zip(roms, rom_trajs):
            thm, cor = check_error_bound(
                sys, rom, u, T, h, traj_full=full[s], traj_rom=trajs[s],
                context={"system": label})
            tail = float(rom.tail_hsv.sum())
            log.add(cor, label, sys.n, certified=True, tail_sum=tail)
            if rom.bound_distinct < rom.bound_all * (1.0 - 1e-12):
                # distinct-value bound engaged only for true multiplicities
                log.add(thm, label, sys.n, certified=True, tail_sum=tail,
                        note="distinct-value bound")
        log.add(check_reach_energy(sys, pair, u, T, h, traj=full[s],
                                   context={"system": label}),
                label, sys.n, certified=True)
    baseline = (controls[1:3], full[1:3])
    del full, rom_trajs

    zero_B = BilinearSystem.from_matrices(sys.A, np.zeros((sys.n, sys.m)), sys.N, sys.C)
    rng = np.random.default_rng([config.seed, sys_idx, k_idx, 17])
    runs = []
    for x0_idx in range(OBSERV_X0_COUNT):
        x0 = rng.standard_normal(sys.n)
        x0 /= np.linalg.norm(x0)
        runs += [(x0_idx, x0, u) for u in baseline[0]]
    trajs = simulate_batch([zero_B], [u for _, _, u in runs], T, h,
                           x0=[np.array([x0 for _, x0, _ in runs])])[0]
    for (x0_idx, x0, u), traj in zip(runs, trajs):
        log.add(check_observ_energy(zero_B, pair, x0, u, T, h, traj=traj,
                                    context={"system": label, "x0_index": x0_idx}),
                label, sys.n, certified=True)
    return baseline


def _p2_cases(log, config, sys_idx, label, sys, k_ref):
    """Gronwall envelopes and the mixed (P2, Q1) pair, from one P2 solve."""
    T, h = config.T, config.h
    try:
        p2 = stochastic_type2_P2(sys, delta=config.delta)
    except (MatrixEquationError, ValueError) as exc:
        log.skip("gronwall_P2", label, sys.n, str(exc))
        log.skip("mixed_side_conditions", label, sys.n, f"{type(exc).__name__}: {exc}")
        return

    spikes = bounded_control_suite(sys.m, 3.0, T, [config.seed, sys_idx, 29],
                                   n_sinusoids=1, n_piecewise=1)
    spikes = spikes[2:]  # the large sinusoid and spike signals
    for u, traj in zip(spikes, simulate_batch([sys], spikes, T, h)[0]):
        log.add(check_gronwall_P2(sys, p2[0], u, T, h, traj=traj,
                                  context={"system": label}),
                label, sys.n, certified=True)

    try:
        bal_m = square_root_balance(sys, mixed_pair_from_P2(sys, p2))
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        log.skip("mixed_side_conditions", label, sys.n, f"{type(exc).__name__}: {exc}")
        return
    rom_m = truncate(bal_m, _campaign_orders(bal_m.hsv)[0])
    small = bounded_control_suite(sys.m, 1e-3 * k_ref, T, [config.seed, sys_idx, 31],
                                  n_sinusoids=1, n_piecewise=0)[1:]
    large = bounded_control_suite(sys.m, 3.0 * k_ref, T, [config.seed, sys_idx, 37],
                                  n_sinusoids=0, n_piecewise=1)[2:]
    full, reduced = simulate_batch([bal_m.system, rom_m.system], small + large, T, h)
    for u, traj_full, traj_rom in zip(small + large, full, reduced):
        rep_m = check_mixed_side_conditions(bal_m, rom_m, u, T, h, traj_full=traj_full,
                                            traj_rom=traj_rom, context={"system": label})
        log.add(rep_m, label, sys.n, certified=False,
                note="side conditions" if rep_m.passed else "side conditions not met")
        if rep_m.passed:
            lhs, rhs = rep_m.context["error_lhs"], rep_m.context["error_rhs"]
            log.add(_report("error_bound_cor", lhs, rhs,
                            rep_m.tolerance_used + _floor(lhs, rhs), dict(rep_m.context)),
                    label, sys.n, certified=True, tail_sum=float(rom_m.tail_hsv.sum()),
                    note="mixed pair under small control")


def _type1_cases(log, config, label, sys, controls, full):
    """Uncertified type-1 baseline on the full-model trajectories `full`
    already computed under `controls`."""
    try:
        bal1 = square_root_balance(sys, type1_gramians(sys))
    except (MatrixEquationError, BalancingError, ValueError) as exc:
        log.skip("error_bound_cor", label, sys.n,
                 f"type1 baseline: {type(exc).__name__}: {exc}")
        return
    rom1 = truncate(bal1, _campaign_orders(bal1.hsv)[0])
    reduced = simulate_batch([rom1.system], controls, config.T, config.h)[0]
    for u, traj_full, traj_rom in zip(controls, full, reduced):
        _, rep1 = check_error_bound(sys, rom1, u, config.T, config.h, traj_full=traj_full,
                                    traj_rom=traj_rom, context={"system": label})
        log.add(rep1, label, sys.n, certified=False,
                tail_sum=float(rom1.tail_hsv.sum()), note="no certified bound")


def benchmark_campaign(config: CampaignConfig, systems) -> CampaignResult:
    """Run every check on each (label, system) pair of `systems` (the default
    grid is `build_campaign_systems(config.seed)`) over the fixed bounds,
    orders and controls.  Individual case failures are recorded and the
    campaign continues; the result is fully determined by the config and the
    systems."""
    log = _CaseLog()
    for sys_idx, (label, sys) in enumerate(systems):
        rep = stability_report(sys)
        if rep.ms_abscissa >= 0.0 or rep.k_max_estimate <= 0.0:
            log.skip("error_bound_cor", label, sys.n, "system not mean-square stable")
            continue
        first = None
        for k_idx, frac in enumerate(K_FRACTIONS):
            k = frac * rep.k_max_estimate
            baseline = _type2_cases(log, config, sys_idx, label, sys, k_idx, k)
            if first is None and baseline is not None:
                first = (k, baseline)
        if first is None:
            continue
        k_ref, (controls, full) = first
        _p2_cases(log, config, sys_idx, label, sys, k_ref)
        _type1_cases(log, config, label, sys, controls, full)

    aggregates = _aggregate(log.cases)
    scored = [c for c in log.cases if c["passed"] is not None]
    summary = {
        "total_cases": len(log.cases),
        "scored_cases": len(scored),
        "certified_cases": sum(c["certified"] for c in scored),
        "certified_violations": sum(c["violation"] for c in scored),
        "certified_hard_failures": sum(c["hard_failure"] for c in scored),
        "skipped": len(log.cases) - len(scored),
    }
    return CampaignResult(config=asdict(config), cases=log.cases,
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
