"""Dense solvers for the matrix equations behind the bilinear Gramians.

Two problem families are covered:

* generalized Lyapunov equations
      M X + X M^T + sum_i N_i X N_i^T = RHS        (reachability side)
      M^T X + X M + sum_i N_i^T X N_i = RHS        (observability side),
  one operator and its adjoint.  `LyapunovOperator(M, N)` is the one
  solver: it LU-factors one matrix and answers both sides from it.

* the Riccati-type inequality
      A_s^T X + X A_s + sum_i N_i^T X N_i + X B B^T X <= -delta I,
  a linear matrix inequality in X through its Schur complement, solved for
  the smallest trace of the reachability-side Gramian P = X^-1 by a log-det
  barrier method.

Every solve is certified after the fact: residuals, the smallest eigenvalue
of the solution, and (for the inequality) the slack matrix and the
barrier's duality-gap bound.  The dense solves work in symmetric
coordinates: the operators above map symmetric matrices to symmetric
matrices, so each solve has n(n+1)/2 unknowns instead of n^2, and no
n^2 x n^2 array is formed.

The solves call six compiled kernels: LAPACK's dgetrf, dgetrs, dpotrf,
dpotrs and dtrtri and BLAS's dsyrk, the function objects of
`scipy.linalg.lapack` and `scipy.linalg.blas`.  They are taken from scipy's
compiled wrapper modules directly (`_scipy_linalg_extension`), because
importing `scipy.linalg` itself also imports numpy.f2py and numpy.testing and
about doubles the start-up time of every bilbt process.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from . import kronecker
from .kronecker import half_unvec, half_vec, sym_basis, sym_operator, symmetrize
from .system import BilinearSystem


def _scipy_linalg_extension(name):
    """The compiled module scipy.linalg.<name>, taken from `sys.modules` or
    loaded from scipy's linalg directory and registered there, so that a later
    `import scipy.linalg` reuses it.  This skips scipy.linalg's package init,
    which imports numpy.f2py and numpy.testing; ImportError if it is missing."""
    fullname = f"scipy.linalg.{name}"
    if fullname not in sys.modules:
        scipy = find_spec("scipy")
        if scipy is None:
            raise ImportError("bilbt needs scipy", name="scipy")
        finder = FileFinder(os.path.join(scipy.submodule_search_locations[0], "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(fullname)
        if spec is None:
            raise ImportError(f"bilbt needs scipy's compiled {fullname}", name=fullname)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[fullname] = module
    return sys.modules[fullname]


_lapack, _blas = _scipy_linalg_extension("_flapack"), _scipy_linalg_extension("_fblas")
dgetrf, dgetrs, dpotrf, dpotrs, dtrtri = (
    _lapack.dgetrf, _lapack.dgetrs, _lapack.dpotrf, _lapack.dpotrs, _lapack.dtrtri)
dsyrk = _blas.dsyrk

KRON_RESIDUAL_TOL = 1e-10
# see `_barrier_solve`; a Newton step forms its products in 1 MB chunks
BARRIER_GAP_REL = 1e-9
BARRIER_T_STEP = 100.0
BARRIER_CENTER_TOL = 0.1
BARRIER_CENTER_MAX = 30
BARRIER_STEP_MAX = 300
BARRIER_X_CAP = 1e6
BARRIER_CHUNK_ENTRIES = 1 << 17
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
    method: str  # kronecker_direct | barrier
    iterations: int  # linear solves, or Newton steps of the barrier
    residual_norm: float  # relative Frobenius; 0 for the inequality
    definiteness_margin: float  # smallest eigenvalue of the solution
    gap: float = 0.0  # the barrier's bound on trace(P) - min trace(P)

    def to_dict(self):
        return {
            "method": self.method,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "definiteness_margin": float(self.definiteness_margin),
            "gap": float(self.gap),
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
    """The generalized Lyapunov operator of (M, N) on the n(n+1)/2 symmetric
    coordinates, solved on either side.  On the orthonormal symmetric basis
    the observability operator is the adjoint of the reachability operator,
    so its matrix is the transpose: the observability matrix alone is
    gathered and LU-factored at the first solve (n above
    `kronecker.MAX_KRON_N` raises `KroneckerCapError`), and every later
    solve, of either side and with any right-hand side, reuses the factors."""

    def __init__(self, M, N):
        self.M = np.asarray(M, dtype=float)
        self.N_list = [np.asarray(Ni, dtype=float) for Ni in N]
        self._factors = None

    def _factor(self):
        n = self.M.shape[0]
        kronecker.check_kron_dim(n)
        basis = sym_basis(n)
        K = sym_operator(self.M.T, None, basis,
                         out=kronecker.coupling_operator([Ni.T for Ni in self.N_list], basis))
        lu, piv, info = dgetrf(K)
        if info > 0:
            raise MeanSquareInstabilityError(
                f"Kronecker matrix singular (zero pivot {info}); the pair is on or "
                "beyond the mean-square stability boundary"
            )
        return basis, K, lu, piv

    def solve(self, RHS, side):
        """The "kronecker_direct" solution X for the symmetric right-hand
        side RHS on `side` ("reachability" or "observability"), as
        (X, SolveDiagnostics); X is symmetrized and its smallest eigenvalue
        is reported as the definiteness margin."""
        if side not in ("reachability", "observability"):
            raise ValueError(f"unknown side {side!r}")
        RHS = np.asarray(RHS, dtype=float)
        asym = np.linalg.norm(RHS - RHS.T)
        scale = max(np.linalg.norm(RHS), 1.0)
        if asym > 1e-12 * scale:
            raise ValueError(f"RHS is not symmetric (relative asymmetry {asym / scale:.2e})")
        RHS = symmetrize(RHS)
        if self._factors is None:
            self._factors = self._factor()
        basis, K, lu, piv = self._factors
        # the reachability side solves with K^T through the same factors
        trans = int(side == "reachability")
        K = K.T if trans else K
        b = half_vec(RHS, basis)
        x = dgetrs(lu, piv, b, trans=trans)[0]
        # one iterative refinement pass keeps the residual near machine level
        x += dgetrs(lu, piv, b - K @ x, trans=trans)[0]
        X = half_unvec(x, basis)
        residual = _relative_residual(self.M, self.N_list, X, RHS, side)
        if residual > KRON_RESIDUAL_TOL:
            raise ConvergenceError(
                f"kronecker_direct residual {residual:.3e} exceeds tolerance "
                f"{KRON_RESIDUAL_TOL:.1e}"
            )
        margin = float(np.linalg.eigvalsh(X).min()) if X.size else 0.0
        return X, SolveDiagnostics(method="kronecker_direct", iterations=1,
                                   residual_norm=residual, definiteness_margin=margin)


def _slack_margin(A_s, N_list, BBt, X):
    """Largest eigenvalue of A_s^T X + X A_s + sum N_i^T X N_i + X B B^T X."""
    slack = _apply_lyapunov(A_s, N_list, X, "observability") + X @ BBt @ X
    return float(np.linalg.eigvalsh(symmetrize(slack)).max())


def _scaled_lyapunov_feasible(Y, BBt, delta):
    """The barrier's start: with Y solving A_s^T Y + Y A_s + sum N_i^T Y N_i = -I,
    every X = c Y has slack matrix -c I + c^2 Y B B^T Y, so c can be chosen to
    keep the margin below -delta (B != 0); None if delta is too large."""
    lam_w = float(np.linalg.eigvalsh(Y @ BBt @ Y).max())
    if 4.0 * delta * lam_w >= 1.0:
        return None
    # largest root of -c + c^2 lam_w = -delta, backed off 0.1% for rounding
    c_max = (1.0 + np.sqrt(1.0 - 4.0 * delta * lam_w)) / (2.0 * lam_w)
    return 0.999 * c_max * Y


class _Point(NamedTuple):
    X: np.ndarray
    S: np.ndarray  # lower Cholesky factor of X
    S_inv: np.ndarray
    f: float  # trace(X^-1)
    logdet: float  # log det F(X) + log(cap - trace(X))
    LF: np.ndarray  # lower Cholesky factor of F(X)


class _LogDetBarrier:
    """t trace(X^-1) - log det F(X) - log(cap - trace(X)), with

        F(X) = -[[A_s^T X + X A_s + sum N_i^T X N_i + delta I,  X B],
                 [B^T X,                                        -I ]]

    positive definite iff X satisfies the inequality strictly; F(X) = F0 -
    J(X) is affine.  The cap bounds X where the inequality does not (rods
    heated at their ends), before rounding in F(X) hides its sign."""

    def __init__(self, A_s, N_list, B, delta, cap):
        self.A_s, self.N_list, self.B, self.delta, self.cap = A_s, N_list, B, delta, cap
        self.n, self.q = B.shape[0], sum(B.shape)
        self.basis = sym_basis(self.n)
        rows, cols = np.triu_indices(self.q)
        # half_vec of the q x q blocks C_p (see `derivatives`), read from T
        self.upper, self.diagonal = rows * self.q + cols, rows == cols
        self.scale = 0.5 * self.basis.weights[:, None] * np.where(rows == cols, 1, np.sqrt(2))
        # work arrays of every Newton step
        d = self.basis.rows.size
        self.chunk = min(d, max(1, BARRIER_CHUNK_ENTRIES // self.q ** 2))
        self._T, self._C = np.empty((self.chunk, self.q, self.q)), np.empty((d, rows.size + 1))
        self._H_f, self._H_b = np.empty((d, d)), np.empty((d, d), order="F")

    def point(self, X):
        """The `_Point` at X, or None outside the barrier's domain."""
        n = self.n
        F = np.eye(self.q)
        F[:n, :n] = -_apply_lyapunov(self.A_s, self.N_list, X, "observability")
        F[:n, :n].flat[::n + 1] -= self.delta
        F[:n, n:] = -X @ self.B
        F[n:, :n] = F[:n, n:].T
        LF, info_F = dpotrf(F, lower=1)
        S, info_X = dpotrf(X, lower=1)
        room = self.cap - float(np.trace(X))
        if info_F != 0 or info_X != 0 or not room > 0.0:
            return None
        S_inv = dtrtri(S, lower=1)[0]
        return _Point(X, S, S_inv, float(np.einsum("ij,ij->", S_inv, S_inv)),
                      2.0 * float(np.log(LF.diagonal()).sum()) + float(np.log(room)), LF)

    def derivatives(self, pt):
        """(g_f, H_f, g_b, H_b): gradients and Hessians (H_b upper triangle;
        both overwritten by the next call) of trace(X^-1) and of the log terms
        in the coordinates z of Z, X = S Z S^T, at Z = I, which keeps the
        Newton system well conditioned where X is large.  trace(Z^-1 M),
        M = S^-1 S^-T, has the Hessian H -> H M + M H.  With [U V] = L^-1 for
        F = L L^T, -log det F has the Hessian tr(C_p C_q), C_p = L^-1 J(S E_p
        S^T) L^-T = w_p / 2 [K_a K'_b] [K'_b K_a]^T for p = (a, b), where K_a
        and K'_b hold column a or b of R S, U S, U N_i^T S in the orders
        (R, U, N_i) and (U, R, N_i), and R = U A_s^T + V B^T.  C holds the
        half_vec of each C_p and last the gradient of -log(cap - <S^T S, Z>)."""
        basis, n, S = self.basis, self.n, pt.S
        M = pt.S_inv @ pt.S_inv.T
        self._H_f.fill(0.0)
        H_f = sym_operator(M, None, basis, out=self._H_f).T  # symmetric: F-ordered
        Linv = dtrtri(pt.LF, lower=1)[0]
        US = Linv[:, :n] @ S
        RS = (Linv[:, :n] @ self.A_s.T + Linv[:, n:] @ self.B.T) @ S
        coupled = [Linv[:, :n] @ (Ni.T @ S) for Ni in self.N_list]
        K = np.stack([RS, US] + coupled).transpose(2, 1, 0)
        K_prime = np.stack([US, RS] + coupled).transpose(2, 1, 0)
        C, C_half = self._C, self._C[:, :-1]
        for p in range(0, len(C), self.chunk):
            a, b = basis.rows[p:p + self.chunk], basis.cols[p:p + self.chunk]
            left = np.concatenate((K[a], K_prime[b]), axis=2)  # [K_a K'_b]
            T = np.matmul(left, np.roll(left, K.shape[2], axis=2).transpose(0, 2, 1),
                          out=self._T[:len(a)]).reshape(len(a), -1)
            np.take(T, self.upper, axis=1, out=C_half[p:p + self.chunk], mode="wrap")
        C_half *= self.scale
        C[:, -1] = half_vec(S.T @ S, basis) / (self.cap - np.trace(pt.X))
        g_b = C_half[:, self.diagonal].sum(axis=1) + C[:, -1]
        return (-half_vec(M, basis), H_f, g_b,
                dsyrk(1.0, C.T, trans=1, c=self._H_b, overwrite_c=1))


def _barrier_solve(A_s, N_list, B, BBt, delta, X0):
    """Minimize trace(X^-1) subject to F(X) > 0 and trace(X) < BARRIER_X_CAP
    trace(X0) by the log-det barrier method (Boyd & Vandenberghe, Convex
    Optimization, ch. 11): for t rising by BARRIER_T_STEP from q / trace(X0^-1),
    q = n + m + 1, damped Newton steps center the barrier, the first along
    the central path's tangent.  Centered (Newton decrement lambda^2 <=
    BARRIER_CENTER_TOL), trace(X^-1) is within (q + sqrt(q) lambda) / t of
    its minimum.  Stops at that gap <= BARRIER_GAP_REL trace(X^-1), or where
    rounding in F(X) stalls it.  Returns (X, gap, Newton steps) for the last
    centered X whose recomputed slack is <= -delta, or (X0, inf, steps)."""
    barrier = _LogDetBarrier(A_s, N_list, B, delta, BARRIER_X_CAP * float(np.trace(X0)))
    pt = barrier.point(X0)
    q = barrier.q + 1
    t = q / pt.f
    best, steps, centering = (X0, np.inf), 0, 0
    g_f, H_f, g_b, H_b = barrier.derivatives(pt)
    while steps < BARRIER_STEP_MAX and centering <= BARRIER_CENTER_MAX:
        c, info = dpotrf(t * H_f + H_b, overwrite_a=1)
        if info != 0:
            break
        g = t * g_f + g_b
        dz = -dpotrs(c, g)[0]
        decrement = -float(g @ dz)
        if decrement <= BARRIER_CENTER_TOL:
            gap = float(q + np.sqrt(q * decrement)) / t
            if _slack_margin(A_s, N_list, BBt, pt.X) <= -delta:
                best = pt.X, gap
            if gap <= BARRIER_GAP_REL * pt.f:
                break
            t_next = t * min(BARRIER_T_STEP, max(2.0, 1.1 * gap / (BARRIER_GAP_REL * pt.f)))
            # near its end the central path is about linear in 1/t: predict
            # its point at t_next along dx/d(1/t) = t^2 H^-1 grad trace(X^-1)
            dz = -(1.0 - t / t_next) * t * dpotrs(c, g_f)[0]
            t, centering = t_next, 0
            slope = float((t * g_f + g_b) @ dz)
        else:
            slope = -decrement
            centering += 1
        trial = _line_search(barrier, pt, pt.S @ half_unvec(dz, barrier.basis) @ pt.S.T,
                             t, slope)
        if trial is None:
            break
        pt, steps = trial, steps + 1
        g_f, H_f, g_b, H_b = barrier.derivatives(pt)
    return best[0], best[1], steps


def _line_search(barrier, pt, dX, t, slope):
    """X + alpha dX, alpha halving from 1 until the barrier at t falls enough
    (Armijo; near the center, -slope < 0.1, until X is in the domain), or
    None.  Far from the center (-slope >= 0.5) a full step is doubled once
    if that lowers the barrier further: trace(X^-1) is flatter than its
    model where X grows."""
    psi = t * pt.f - pt.logdet
    for alpha in 0.5 ** np.arange(40.0):
        trial = barrier.point(pt.X + alpha * dX)
        if trial is not None and (-slope < 0.1 or t * trial.f - trial.logdet
                                  <= psi + 0.01 * alpha * slope):
            break
    else:
        return None
    if alpha == 1.0 and -slope >= 0.5:
        longer = barrier.point(pt.X + 2.0 * dX)
        if longer is not None and t * longer.f - longer.logdet < t * trial.f - trial.logdet:
            return longer
    return trial


def solve_type2_riccati(prob: RiccatiInequalityProblem, lyapunov=None):
    """Find the positive-definite X of smallest trace(X^-1), the least
    conservative P = X^-1, with
    A_s^T X + X A_s + sum N_i^T X N_i + X B B^T X <= -delta I.

    `_barrier_solve` finds it from c Y, Y the generalized Lyapunov solution
    of A_s^T Y + Y A_s + sum N_i^T Y N_i = -I, with delta halved until some
    c Y fits.  The operator is resolvent-positive, so a positive-definite Y
    certifies mean-square stability (Damm, LNCIS 297, 2004); the abscissa
    is computed only to report a failure.  For B = 0, X solves the Lyapunov
    equation with -delta I.  Returns (X, SolveDiagnostics, delta_used).
    `lyapunov` is the `LyapunovOperator` of (A_shifted, N) when the caller
    solves with it too, so that it is factored once.
    """
    A_s = np.asarray(prob.A_shifted, dtype=float)
    N_list = [np.asarray(Ni, dtype=float) for Ni in prob.N]
    B = np.atleast_2d(np.asarray(prob.B, dtype=float))
    delta = float(prob.delta)
    if lyapunov is None:
        lyapunov = LyapunovOperator(A_s, N_list)
    linear = not np.any(B != 0.0)
    try:
        Y, diag = lyapunov.solve(-(delta if linear else 1.0) * np.eye(A_s.shape[0]),
                                 "observability")
        failure = None if diag.definiteness_margin > 0.0 else ConvergenceError(
            "generalized Lyapunov solution is not positive definite")
    except (MeanSquareInstabilityError, ConvergenceError) as exc:
        failure = exc
    if failure is not None:
        msab = kronecker.ms_abscissa(A_s, N_list)
        if msab < 0.0:
            raise failure
        raise RiccatiInfeasibleError(
            f"shifted pair is not mean-square stable (abscissa {msab:.3e} >= 0); "
            "no positive-definite solution exists for this control bound",
            abscissa=msab) from failure
    if linear:
        return Y, diag, delta
    BBt = B @ B.T
    for _halving in range(60):
        X0 = _scaled_lyapunov_feasible(Y, BBt, delta)
        if X0 is not None and _slack_margin(A_s, N_list, BBt, X0) <= -delta:
            X, gap, steps = _barrier_solve(A_s, N_list, B, BBt, delta, X0)
            return X, SolveDiagnostics(
                method="barrier", iterations=steps, residual_norm=0.0,
                definiteness_margin=float(np.linalg.eigvalsh(X).min()), gap=gap), delta
        delta *= 0.5
    raise ConvergenceError(
        f"no scaled Lyapunov start satisfies the inequality for any slack down "
        f"to delta={delta:.3e} (started from {prob.delta:.3e})")


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
    top = _apply_lyapunov(A_s, sys.N, X, "observability")
    S = np.block([[top, X @ sys.B], [sys.B.T @ X, -np.eye(sys.m)]])
    lam = float(np.linalg.eigvalsh(symmetrize(S)).max())
    return FeasibilityReport(largest_eigenvalue=lam, feasible=lam <= LMI_TOL,
                             tol=LMI_TOL, cond_P=cond_P)
