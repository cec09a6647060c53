import json

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from bilbt import (
    BalancingError,
    BilinearSystem,
    ConvergenceError,
    MatrixEquationError,
    MeanSquareInstabilityError,
    square_root_balance,
    stability_report,
    type1_gramians,
    type2_gramians,
)
from bilbt.kronecker import symmetrize
from bilbt.matrix_equations import _relative_residual
from bilbt.verification import random_ms_stable_system, worked_2x2

FIXED_POINT_CHANGE_TOL = 1e-12
FIXED_POINT_MAX_SWEEPS = 10000
FIXED_POINT_RESIDUAL_TOL = 1e-8


@pytest.fixture
def scalar_sys():
    """a = -1, n1 = 0.5, b = c = 1: closed forms are known for every Gramian."""
    return BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.5]]], [[1.0]])


@pytest.fixture
def worked_sys():
    return worked_2x2()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def make_random_system(seed, n=4, m=1, p=1):
    return random_ms_stable_system(n, m, p, np.random.default_rng(seed))


def heat_rod(n, g=5.0):
    """A rod of n nodes heated through both ends: the stencil 100 (-2, 1, 1),
    B = g e_end and N_i = -g e_end e_end^T for the two ends, and the mean and
    mid-rod temperatures as outputs."""
    A = 100.0 * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
                 + np.diag(np.ones(n - 1), -1))
    B = np.zeros((n, 2))
    N = [np.zeros((n, n)), np.zeros((n, n))]
    for i, end in enumerate((0, n - 1)):
        B[end, i] = g
        N[i][end, end] = -g
    C = np.zeros((2, n))
    C[0, :] = 1.0 / n
    C[1, n // 2] = 1.0
    return BilinearSystem.from_matrices(A, B, N, C)


# (n, m, p) of the seeded random systems of the pinned reduce corpus
REDUCE_RANDOM_SPECS = ((2, 1, 1), (3, 2, 1), (4, 1, 2), (6, 2, 2), (10, 2, 1))
# the control bound of its type-2 reductions, as a share of k_max
REDUCE_K_FRACTION = 0.5


def reduce_corpus():
    """[(label, system)] of the pinned reduce corpus: the worked example,
    seeded random systems with n <= 10 and two heat rods."""
    corpus = [("worked-2x2", worked_2x2())]
    for i, (n, m, p) in enumerate(REDUCE_RANDOM_SPECS):
        rng = np.random.default_rng([2026, i])
        corpus.append((f"random-{n}-{i}", random_ms_stable_system(n, m, p, rng)))
    return corpus + [("heat-12", heat_rod(12)), ("heat-20", heat_rod(20))]


def reduce_results(sys):
    """What the pinned reduce corpus records of `sys`: the type-2 trace P,
    trace Q, Hankel values and barrier `stop` at REDUCE_K_FRACTION * k_max,
    and the type-1 Hankel values, or the name of the exception where a
    solve or the balancing fails."""
    k = REDUCE_K_FRACTION * stability_report(sys).k_max_estimate
    type2 = type2_gramians(sys, k)
    try:
        type1 = {"hsv": square_root_balance(sys, type1_gramians(sys)).hsv.tolist()}
    except (MatrixEquationError, BalancingError) as exc:
        type1 = {"error": type(exc).__name__}
    return {"k": k,
            "type2": {"trace_P": float(np.trace(type2.P)), "trace_Q": float(np.trace(type2.Q)),
                      "hsv": square_root_balance(sys, type2).hsv.tolist(),
                      "stop": type2.diagnostics[0].stop},
            "type1": type1}


def small_campaign_systems(seed):
    """A two-system campaign: the worked example and one seeded random-3."""
    return [("worked-2x2", worked_2x2()),
            ("random-3", random_ms_stable_system(3, 2, 1, np.random.default_rng(seed)))]


# the case fields of a compact pinned report: every non-float field, and
# the measured and bound sides of each check with its quadrature slack
PINNED_COLUMNS = ("case", "check", "system", "n", "kind", "r", "control", "passed",
                  "certified", "violation", "hard_failure", "note", "lhs", "rhs", "eps_q")


def compact_report(report):
    """JSON lines of a campaign report: its config, summary, aggregates and
    the names of PINNED_COLUMNS on the first line, then one line per case
    with its values of those columns."""
    head = {key: report[key] for key in ("config", "summary", "aggregates")}
    rows = [[case[column] for column in PINNED_COLUMNS] for case in report["cases"]]
    return "".join(json.dumps(line, sort_keys=True) + "\n"
                   for line in [{**head, "columns": list(PINNED_COLUMNS)}] + rows)


def report_moves(pinned, fresh, rel_tol, path="$"):
    """(path, pinned value, fresh value) wherever `fresh` differs from
    `pinned`, both parsed JSON: floats by more than `rel_tol` relative (a
    pinned 0 only by 0), everything else at all; a list of another length
    gives (path + " length", its two lengths)."""
    if isinstance(pinned, float) and isinstance(fresh, float):
        if abs(fresh - pinned) > rel_tol * abs(pinned):
            yield path, pinned, fresh
    elif isinstance(pinned, dict) and isinstance(fresh, dict) and pinned.keys() == fresh.keys():
        for key in pinned:
            yield from report_moves(pinned[key], fresh[key], rel_tol, f"{path}.{key}")
    elif isinstance(pinned, list) and isinstance(fresh, list):
        if len(pinned) != len(fresh):
            yield f"{path} length", len(pinned), len(fresh)
        for i, (a, b) in enumerate(zip(pinned, fresh)):
            yield from report_moves(a, b, rel_tol, f"{path}[{i}]")
    elif type(pinned) is not type(fresh) or pinned != fresh:
        yield path, pinned, fresh


def report_differences(pinned, fresh, rel_tol):
    """`report_moves` as lines "path: pinned -> fresh"."""
    for path, old, new in report_moves(pinned, fresh, rel_tol):
        yield f"{path}: {old!r} -> {new!r}"


def solve_fixed_point(M, N, RHS, side):
    """Oracle for `LyapunovOperator.solve`: splitting sweeps that solve the
    plain Lyapunov part and move the coupling terms to the right-hand side;
    they contract exactly under mean-square stability.  Returns (X, relative
    residual); raises MeanSquareInstabilityError on divergence and
    ConvergenceError when the sweeps or the residual miss their tolerances."""
    M = np.asarray(M, dtype=float)
    N_list = [np.asarray(Ni, dtype=float) for Ni in N]
    RHS = symmetrize(np.asarray(RHS, dtype=float))
    a = M if side == "reachability" else M.T
    X = np.zeros_like(RHS)
    scale = max(np.linalg.norm(RHS), 1.0)
    for sweep in range(1, FIXED_POINT_MAX_SWEEPS + 1):
        if side == "reachability":
            Q = RHS - sum(Ni @ X @ Ni.T for Ni in N_list)
        else:
            Q = RHS - sum(Ni.T @ X @ Ni for Ni in N_list)
        try:
            X_new = symmetrize(solve_continuous_lyapunov(a, Q))
        except np.linalg.LinAlgError as exc:
            raise MeanSquareInstabilityError(f"Lyapunov sweep failed: {exc}") from exc
        if not np.all(np.isfinite(X_new)) or np.linalg.norm(X_new) > 1e50 * scale:
            raise MeanSquareInstabilityError(
                f"fixed-point iteration diverged at sweep {sweep}")
        change = np.linalg.norm(X_new - X)
        X = X_new
        if change <= FIXED_POINT_CHANGE_TOL * max(np.linalg.norm(X), 1e-300):
            break
    else:
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {FIXED_POINT_MAX_SWEEPS} sweeps")
    residual = _relative_residual(M, N_list, X, RHS, side)
    if residual > FIXED_POINT_RESIDUAL_TOL:
        raise ConvergenceError(f"fixed_point residual {residual:.3e} exceeds tolerance")
    return X, residual


def reach_operator(M, N_list):
    """Dense oracle: the matrix of X -> M X + X M^T + sum_i N_i X N_i^T on
    the column-major vec(X), I kron M + M kron I + sum_i N_i kron N_i."""
    M = np.asarray(M, dtype=float)
    eye = np.eye(M.shape[0])
    K = np.kron(eye, M) + np.kron(M, eye)
    for Ni in N_list:
        K += np.kron(np.asarray(Ni, dtype=float), Ni)
    return K
