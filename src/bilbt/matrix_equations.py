"""Dense solvers for the matrix equations behind the bilinear Gramians.

Two problem families are covered:

* generalized Lyapunov equations
      M X + X M^T + sum_i N_i X N_i^T = RHS        (reachability side)
      M^T X + X M + sum_i N_i^T X N_i = RHS        (observability side)

* the Riccati-type inequality
      A_s^T X + X A_s + sum_i N_i^T X N_i + X B B^T X <= -delta I,
  solved on the slacked equality whenever a root is reachable (the maximal
  root gives the minimal reachability-side Gramian P = X^-1) and by a
  certified interior point otherwise.

Every solve is certified after the fact: residuals, the smallest eigenvalue
of the solution, and (for the inequality) the Schur-complement block matrix.

The dense solves (the "kronecker_direct" Lyapunov method and every Newton
step of the inequality solver) work in symmetric coordinates: the operators
above map symmetric matrices to symmetric matrices, so each solve has
n(n+1)/2 unknowns instead of n^2, and its matrix is gathered by
`kronecker.sym_operator` without forming any n^2 x n^2 array.  A Riccati
solve forms the coupling part of the Newton step operator once; each Newton
step scales it by the step's coupling strength and adds the closed-loop
Lyapunov part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are
from scipy.linalg.lapack import dgetrf, dgetrs

from . import kronecker
from .kronecker import half_unvec, half_vec, sym_basis, sym_operator, symmetrize
from .system import BilinearSystem

KRON_RESIDUAL_TOL = 1e-10
CARE_CHANGE_TOL = 1e-13
HOMOTOPY_ITER_BUDGET = 800
HOMOTOPY_PATH_TOL = 1e-8
HOMOTOPY_STEP_MAX = 12
NEWTON_POLISH_MAX = 60
RICCATI_RESIDUAL_TOL = 1e-10
SPD_COND_CAP = 1e14
LMI_TOL = 1e-8


class MatrixEquationError(RuntimeError):
    pass


class MeanSquareInstabilityError(MatrixEquationError):
    """The coefficient pair is not mean-square stable; no PSD solution exists."""


class ConvergenceError(MatrixEquationError):
    """An iterative solver hit its cap or stagnated."""


class RiccatiInfeasibleError(MatrixEquationError):
    """No positive-definite solution found; usually the control bound k is too
    large for the system."""

    def __init__(self, message, abscissa=None, k_max=None):
        super().__init__(message)
        self.abscissa = abscissa
        self.k_max = k_max


@dataclass(frozen=True)
class GeneralizedLyapunovProblem:
    """Data of one generalized Lyapunov equation.

    `side` is "reachability" (M X + X M^T + sum N_i X N_i^T = RHS) or
    "observability" (M^T X + X M + sum N_i^T X N_i = RHS).
    """

    M: np.ndarray
    N: tuple
    RHS: np.ndarray
    side: str = "reachability"

    def __post_init__(self):
        if self.side not in ("reachability", "observability"):
            raise ValueError(f"unknown side {self.side!r}")
        rhs = np.asarray(self.RHS, dtype=float)
        asym = np.linalg.norm(rhs - rhs.T)
        scale = max(np.linalg.norm(rhs), 1.0)
        if asym > 1e-12 * scale:
            raise ValueError(f"RHS is not symmetric (relative asymmetry {asym / scale:.2e})")


@dataclass(frozen=True)
class RiccatiInequalityProblem:
    """Data of the shifted Riccati-type inequality; A_shifted = A + (k^2/2) I."""

    A_shifted: np.ndarray
    N: tuple
    B: np.ndarray
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class SolveDiagnostics:
    method: str  # kronecker_direct | newton | interior_point
    iterations: int  # work of the returned solution only
    residual_norm: float  # relative Frobenius
    definiteness_margin: float  # smallest eigenvalue of the solution

    def to_dict(self):
        return {
            "method": self.method,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "definiteness_margin": float(self.definiteness_margin),
        }


def _apply_lyapunov(M, N_list, X, side):
    if side == "reachability":
        R = M @ X + X @ M.T
        for Ni in N_list:
            R += Ni @ X @ Ni.T
    else:
        R = M.T @ X + X @ M
        for Ni in N_list:
            R += Ni.T @ X @ Ni
    return R


def _relative_residual(M, N_list, X, RHS, side):
    R = _apply_lyapunov(M, N_list, X, side) - RHS
    denom = np.linalg.norm(RHS)
    if denom == 0.0:
        denom = max(np.linalg.norm(X), 1.0)
    return float(np.linalg.norm(R) / denom)


class LyapunovOperator:
    """The generalized Lyapunov operator of (M, N, side) on the n(n+1)/2
    symmetric coordinates, gathered and LU-factored at its first solve
    (n above `kronecker.MAX_KRON_N` raises `KroneckerCapError`); every later
    solve, with any right-hand side, reuses the factors."""

    def __init__(self, M, N, side):
        self.M = np.asarray(M, dtype=float)
        self.N_list = [np.asarray(Ni, dtype=float) for Ni in N]
        self.side = side
        self._factors = None

    def _factor(self):
        n = self.M.shape[0]
        kronecker.check_kron_dim(n)
        M, N_list = self.M, self.N_list
        if self.side == "observability":
            M, N_list = M.T, [Ni.T for Ni in N_list]
        basis = sym_basis(n)
        K = sym_operator(M, None, basis, out=kronecker.coupling_operator(N_list, basis))
        lu, piv, info = dgetrf(K)
        if info > 0:
            raise MeanSquareInstabilityError(
                f"Kronecker matrix singular (zero pivot {info}); the pair is on or "
                "beyond the mean-square stability boundary"
            )
        return basis, K, lu, piv

    def solve(self, RHS):
        """The "kronecker_direct" solution X for the symmetric right-hand
        side RHS, as (X, SolveDiagnostics); X is symmetrized and its smallest
        eigenvalue is reported as the definiteness margin."""
        RHS = symmetrize(np.asarray(RHS, dtype=float))
        if self._factors is None:
            self._factors = self._factor()
        basis, K, lu, piv = self._factors
        b = half_vec(RHS, basis)
        x = dgetrs(lu, piv, b)[0]
        # one iterative refinement pass keeps the residual near machine level
        x += dgetrs(lu, piv, b - K @ x)[0]
        X = half_unvec(x, basis)
        residual = _relative_residual(self.M, self.N_list, X, RHS, self.side)
        if residual > KRON_RESIDUAL_TOL:
            raise ConvergenceError(
                f"kronecker_direct residual {residual:.3e} exceeds tolerance "
                f"{KRON_RESIDUAL_TOL:.1e}"
            )
        margin = float(np.linalg.eigvalsh(X).min()) if X.size else 0.0
        return X, SolveDiagnostics(method="kronecker_direct", iterations=1,
                                   residual_norm=residual, definiteness_margin=margin)


def solve_generalized_lyapunov(prob: GeneralizedLyapunovProblem):
    """Solve a generalized Lyapunov equation by the "kronecker_direct" method:
    a dense solve on the n(n+1)/2 symmetric coordinates (n above
    `kronecker.MAX_KRON_N` raises `KroneckerCapError`).

    Returns (X, SolveDiagnostics); X is symmetrized and its smallest
    eigenvalue is reported as the definiteness margin.
    """
    return LyapunovOperator(prob.M, prob.N, prob.side).solve(prob.RHS)


def _riccati_residual(A_s, N_list, BBt, X, delta):
    """(relative residual of the slacked equality at X, X B B^T X): the
    quadratic term is the right-hand side of the next Newton step."""
    quad = X @ BBt @ X
    G = A_s.T @ X + X @ A_s
    scale = max(delta * np.sqrt(X.shape[0]), np.linalg.norm(quad), np.linalg.norm(G), 1e-300)
    for Ni in N_list:
        G += Ni.T @ X @ Ni
    G += quad
    G.flat[::X.shape[0] + 1] += delta
    return float(np.linalg.norm(G) / scale), quad


def _newton_at_coupling(A_s, N_list, BBt, delta, s, X0, max_iter, tol, basis,
                        coupling):
    """Newton on the slacked equality with the coupling scaled by s: each step
    solves the generalized Lyapunov equation of the closed loop A_s + B B^T X_j,

        Ac^T X+ + X+ Ac + s * sum N_i^T X+ N_i = X_j B B^T X_j - delta I.

    `coupling` is the matrix of X -> sum N_i^T X N_i on `basis`.
    Returns (X, residual, iterations); X is None if the iteration broke down.
    """
    delta_eye = delta * np.eye(A_s.shape[0])
    Ns = [np.sqrt(s) * Ni for Ni in N_list]
    s_coupling = s * coupling
    X, quad = X0, X0 @ BBt @ X0
    best, best_resid = None, np.inf
    scale0 = max(np.linalg.norm(X0), 1.0)
    for it in range(1, max_iter + 1):
        Ac = A_s + BBt @ X
        K = sym_operator(Ac.T, None, basis, out=s_coupling.copy())
        try:
            X_new = half_unvec(np.linalg.solve(K, half_vec(quad - delta_eye, basis)), basis)
        except np.linalg.LinAlgError:
            return best, best_resid, it
        if not np.all(np.isfinite(X_new)) or np.linalg.norm(X_new) > 1e10 * scale0:
            return best, best_resid, it
        change = np.linalg.norm(X_new - X)
        X = X_new
        resid, quad = _riccati_residual(A_s, Ns, BBt, X, delta)
        if resid < best_resid:
            best, best_resid = X, resid
        if resid <= tol or change <= CARE_CHANGE_TOL * max(np.linalg.norm(X), 1e-300):
            return best, best_resid, it
    return best, best_resid, max_iter


def _homotopy_solve(A_s, N_list, B, BBt, delta, basis, coupling):
    """Track the maximal-root branch from the uncoupled CARE (coupling scale
    s = 0) to the full equation (s = 1) with adaptive steps and Newton
    warm starts; the final point is polished to full residual tolerance.

    The s = 0 equation maps onto a standard CARE with drift -A_s and state
    weight -delta I; its stabilizing branch makes A_s + B B^T X anti-stable,
    which is the maximal-root branch (minimal Gramian P)."""
    n = A_s.shape[0]
    try:
        X = symmetrize(solve_continuous_are(-A_s, B, -delta * np.eye(n),
                                            np.eye(B.shape[1])))
    except (np.linalg.LinAlgError, ValueError):
        return None, np.inf, 1
    if not np.all(np.isfinite(X)):
        return None, np.inf, 1
    iters = 1
    s, ds = 0.0, 0.25
    while s < 1.0 and iters < HOMOTOPY_ITER_BUDGET:
        s_next = min(1.0, s + ds)
        if s_next == 1.0:
            tol, step_max = 0.01 * RICCATI_RESIDUAL_TOL, NEWTON_POLISH_MAX
        else:
            tol, step_max = HOMOTOPY_PATH_TOL, HOMOTOPY_STEP_MAX
        X_new, resid, it = _newton_at_coupling(A_s, N_list, BBt, delta, s_next,
                                               X, step_max, tol, basis, coupling)
        iters += it
        accept_tol = RICCATI_RESIDUAL_TOL if s_next == 1.0 else HOMOTOPY_PATH_TOL
        if X_new is not None and resid <= accept_tol:
            X, s = X_new, s_next
            ds = min(2.0 * ds, 1.0 - s + 1e-16)
        else:
            ds *= 0.5
            if ds < 1e-4:  # fold in the branch: no solution beyond this s
                return None, np.inf, iters
    return X, _riccati_residual(A_s, N_list, BBt, X, delta)[0], iters


def _scaled_lyapunov_feasible(Y, BBt, delta):
    """Certified fallback: with Y solving A_s^T Y + Y A_s + sum N_i^T Y N_i = -I,
    every X = c Y has slack matrix -c I + c^2 Y B B^T Y, so c can be chosen to
    keep the margin below -delta.  Conservative (large P) but always exists
    under mean-square stability; None if delta is too large for it."""
    lam_w = float(np.linalg.eigvalsh(Y @ BBt @ Y).max())
    if lam_w <= 0.0:
        # quadratic term vanishes along Y: X = Y has margin -1 <= -delta
        return Y
    if 4.0 * delta * lam_w >= 1.0:
        return None
    # largest root of -c + c^2 lam_w = -delta, backed off 0.1% for rounding
    c_max = (1.0 + np.sqrt(1.0 - 4.0 * delta * lam_w)) / (2.0 * lam_w)
    return 0.999 * c_max * Y


def _equality_candidates(A_s, N_list, B, BBt, bnorm, delta, msab, basis, coupling):
    """All positive-definite roots of the slacked equality the two strategies
    find, as (X, iterations) pairs: plain Newton from a ladder of theta * I
    starts, plus the coupling-homotopy branch from the uncoupled CARE."""
    candidates = []
    theta0 = (-msab) / bnorm
    n = A_s.shape[0]
    for factor in (4.0, 16.0, 64.0, 256.0):
        X, resid, it = _newton_at_coupling(A_s, N_list, BBt, delta, 1.0,
                                           factor * theta0 * np.eye(n),
                                           NEWTON_POLISH_MAX,
                                           0.01 * RICCATI_RESIDUAL_TOL, basis,
                                           coupling)
        if X is not None and resid <= RICCATI_RESIDUAL_TOL \
                and np.linalg.eigvalsh(X).min() > 0.0:
            candidates.append((X, it))
    X, resid, it = _homotopy_solve(A_s, N_list, B, BBt, delta, basis, coupling)
    if X is not None and resid <= RICCATI_RESIDUAL_TOL \
            and np.linalg.eigvalsh(X).min() > 0.0:
        candidates.append((X, it))
    return candidates


def solve_type2_riccati(prob: RiccatiInequalityProblem, lyapunov=None):
    """Find a positive-definite X with
    A_s^T X + X A_s + sum N_i^T X N_i + X B B^T X <= -delta I.

    Any root of the slacked equality (right-hand side -delta I) is feasible;
    among the roots found, the one of smallest trace(X^-1) is returned, since
    small P = X^-1 gives the least conservative truncation bound.  Roots are
    hunted by Newton iteration (each step a generalized Lyapunov solve of the
    closed loop) from a ladder of scaled-identity starts and along a homotopy
    in the coupling strength started from the uncoupled CARE.  The equality
    is not guaranteed to be solvable; when no root is found, a certified
    interior point of the inequality built from a scaled generalized Lyapunov
    solution is returned instead.  Whenever a slack proves unreachable, delta
    is halved and the solve retried; the delta actually used is returned.

    Returns (X, SolveDiagnostics, delta_used).  The diagnostics' iterations
    are the returned solution's own work at delta_used: the Newton steps of
    its ladder start or of its homotopy, or the interior point's Lyapunov
    solve.  `lyapunov` is the `LyapunovOperator` of (A_shifted, N,
    "observability") when the caller solves with it too, so that it is
    factored once; None builds it here.
    """
    A_s = np.asarray(prob.A_shifted, dtype=float)
    N_list = [np.asarray(Ni, dtype=float) for Ni in prob.N]
    B = np.atleast_2d(np.asarray(prob.B, dtype=float))
    n = A_s.shape[0]

    msab = kronecker.ms_abscissa(A_s, N_list)
    if msab >= 0.0:
        raise RiccatiInfeasibleError(
            f"shifted pair is not mean-square stable (abscissa {msab:.3e} >= 0); "
            "no positive-definite solution exists for this control bound",
            abscissa=msab,
        )

    BBt = B @ B.T
    bnorm = float(np.linalg.norm(BBt, 2))
    eye = np.eye(n)
    if lyapunov is None:
        lyapunov = LyapunovOperator(A_s, N_list, "observability")

    if bnorm == 0.0:
        # quadratic term vanishes: the equality is a generalized Lyapunov
        # equation and any small positive-definite X is feasible
        X, diag = lyapunov.solve(-float(prob.delta) * eye)
        return X, diag, float(prob.delta)

    delta = float(prob.delta)
    basis = sym_basis(n)
    # the step operators of every Newton call share this coupling part
    coupling = kronecker.coupling_operator([Ni.T for Ni in N_list], basis)
    # the interior point scales one generalized Lyapunov solution, whatever delta
    Y, lyap_diag = lyapunov.solve(-eye)
    for _halving in range(60):
        candidates = _equality_candidates(A_s, N_list, B, BBt, bnorm, delta, msab,
                                          basis, coupling)

        X_lyap = _scaled_lyapunov_feasible(Y, BBt, delta)
        if X_lyap is not None:
            slack = _apply_lyapunov(A_s, N_list, X_lyap, "observability") \
                + X_lyap @ BBt @ X_lyap
            margin = float(np.linalg.eigvalsh(symmetrize(slack)).max())
            if margin <= -delta and np.linalg.eigvalsh(X_lyap).min() > 0.0:
                candidates.append((X_lyap, lyap_diag.iterations))

        if candidates:
            # the iterations reported are the winner's own, at this delta
            X, iterations = min(candidates,
                                key=lambda c: float(np.trace(np.linalg.inv(c[0]))))
            from_equality = X is not X_lyap
            diag = SolveDiagnostics(
                method="newton" if from_equality else "interior_point",
                iterations=iterations,
                # for the interior point the equality residual is not meaningful;
                # its certificate is the feasibility margin, reported as 0
                residual_norm=(_riccati_residual(A_s, N_list, BBt, X, delta)[0]
                               if from_equality else 0.0),
                definiteness_margin=float(np.linalg.eigvalsh(X).min()))
            return X, diag, delta
        delta *= 0.5
    raise ConvergenceError(
        f"inequality solve failed for every slack down to delta={delta:.3e} "
        f"(started from {prob.delta:.3e})"
    )


@dataclass(frozen=True)
class FeasibilityReport:
    largest_eigenvalue: float
    feasible: bool
    tol: float
    cond_P: float

    def to_dict(self):
        return {
            "largest_eigenvalue": float(self.largest_eigenvalue),
            "feasible": bool(self.feasible),
            "tol": float(self.tol),
            "cond_P": float(self.cond_P),
        }


def invert_spd(P):
    """Invert a symmetric positive-definite matrix via its eigendecomposition."""
    P = symmetrize(np.asarray(P, dtype=float))
    w, V = np.linalg.eigh(P)
    if w.min() <= 0.0 or w.max() / w.min() > SPD_COND_CAP:
        raise MatrixEquationError(
            f"matrix not invertible within condition cap {SPD_COND_CAP:.1e} "
            f"(eigenvalue range [{w.min():.3e}, {w.max():.3e}])"
        )
    return (V / w) @ V.T, float(w.max() / w.min())


def check_lmi_feasibility(sys: BilinearSystem, k, P, X=None) -> FeasibilityReport:
    """Certify a reachability-side Gramian candidate P against the
    Schur-complement block matrix

        [[A_s^T X + X A_s + sum N_i^T X N_i,  X B],
         [B^T X,                              -I ]],   X = P^-1,

    which is negative semidefinite iff P satisfies the Riccati-type
    inequality at control bound k.  Feasible iff the largest eigenvalue of
    the block matrix is <= LMI_TOL."""
    if X is None:
        X, cond_P = invert_spd(P)
    else:
        X = symmetrize(np.asarray(X, dtype=float))
        w = np.linalg.eigvalsh(symmetrize(np.asarray(P, dtype=float)))
        cond_P = float(w.max() / w.min()) if w.min() > 0 else np.inf
    A_s = sys.A + 0.5 * float(k) ** 2 * np.eye(sys.n)
    top = A_s.T @ X + X @ A_s
    for Ni in sys.N:
        top += Ni.T @ X @ Ni
    S = np.block([[top, X @ sys.B], [sys.B.T @ X, -np.eye(sys.m)]])
    lam = float(np.linalg.eigvalsh(symmetrize(S)).max())
    return FeasibilityReport(largest_eigenvalue=lam, feasible=lam <= LMI_TOL,
                             tol=LMI_TOL, cond_P=cond_P)
