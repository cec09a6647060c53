"""The four Gramian families of a bilinear system, from two drifts.

* type1: P1, Q1 from the generalized Lyapunov equations with unshifted A.
  They carry no control information and yield only local energy statements.
* type2_bilinear: P from the Riccati-type inequality and Q from the
  generalized Lyapunov equation, both with A shifted by (k^2/2) I, where k
  bounds the control pointwise.  This pair certifies the output error bound.
* P2: the k = 0 special case of the inequality, the P of the type-2 pair at
  k = 0, whose Q is then Q1.
* mixed_Q1_P2: the pair (P2, Q1), the type-2 pair at k = 0 relabelled; it
  is valid for the error bound only under sufficiently small controls
  (checked empirically downstream).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kronecker
from .kronecker import symmetrize
from .matrix_equations import (
    ConvergenceError,
    LyapunovOperator,
    RiccatiInequalityProblem,
    RiccatiInfeasibleError,
    MeanSquareInstabilityError,
    check_lmi_feasibility,
    invert_spd,
    solve_type2_riccati,
)
from .system import BilinearSystem, stability_report

GRAMIAN_KINDS = ("type1", "type2_bilinear", "mixed_Q1_P2")

# eigenvalues inside (-CLAMP_TOL, CLAMP_TOL) count as zero: the pair is then
# flagged not minimal and balancing applies its own regularization
CLAMP_TOL = 1e-10


@dataclass(frozen=True)
class GramianPair:
    """A reachability-type and an observability-type Gramian with provenance."""

    P: np.ndarray
    Q: np.ndarray
    kind: str
    k: float
    diagnostics: tuple  # (SolveDiagnostics for P, SolveDiagnostics for Q)
    delta: float | None = None  # slack actually used by the inequality solver
    lmi_margin: float | None = None  # largest eigenvalue of the certificate block
    minimal: bool = True

    def __post_init__(self):
        if self.kind not in GRAMIAN_KINDS:
            raise ValueError(f"unknown Gramian kind {self.kind!r}")


def _minimality(P, Q):
    margins = [float(np.linalg.eigvalsh(M).min()) for M in (P, Q)]
    return all(margin > CLAMP_TOL for margin in margins)


def type1_gramians(sys: BilinearSystem) -> GramianPair:
    """Solve A P1 + P1 A^T + sum N_i P1 N_i^T = -B B^T and the transposed-side
    analogue with -C^T C.

    One operator is factored once for both sides.  Its reachability
    solution Y of the equation with -I certifies mean-square stability when
    positive definite (see `solve_type2_riccati`); the abscissa is computed
    only when that fails, and MeanSquareInstabilityError is raised if it is
    >= 0."""
    operator = LyapunovOperator(sys.A, sys.N)
    try:
        certified = operator.solve(-np.eye(sys.n), "reachability")[1].definiteness_margin > 0.0
    except (MeanSquareInstabilityError, ConvergenceError):
        certified = False
    if not certified:
        msab = kronecker.ms_abscissa(sys.A, sys.N)
        if msab >= 0.0:
            raise MeanSquareInstabilityError(
                f"system is not mean-square stable (abscissa {msab:.3e})")
    P, diag_p = operator.solve(-sys.B @ sys.B.T, "reachability")
    Q, diag_q = operator.solve(-sys.C.T @ sys.C, "observability")
    return GramianPair(P=P, Q=Q, kind="type1", k=0.0, diagnostics=(diag_p, diag_q),
                       minimal=_minimality(P, Q))


def default_delta(sys: BilinearSystem) -> float:
    scale = float(np.linalg.norm(sys.B @ sys.B.T, 2))
    return 1e-6 * (scale if scale > 0.0 else 1.0)


def _shifted(sys, k):
    return sys.A + 0.5 * float(k) ** 2 * np.eye(sys.n)


def type2_gramians(sys: BilinearSystem, k, delta=None) -> GramianPair:
    """Control-bounded Gramians: P from the inequality and Q from the shifted
    observability equation, both at drift A + (k^2/2) I.  At k = 0 this is
    the pair (P2, Q1).

    Raises RiccatiInfeasibleError (with the largest feasible bound
    attached) if k is too large for the system.  The Lyapunov solve that
    starts the P solve's barrier and the Q solve share one factored shifted
    operator."""
    if k < 0:
        raise ValueError(f"control bound k must be nonnegative, got {k}")
    A_s = _shifted(sys, k)
    operator = LyapunovOperator(A_s, sys.N)
    # the solver certifies mean-square stability of the shifted pair by its
    # positive-definite Lyapunov solution and computes the shifted abscissa
    # only when that fails; the unshifted one only when k proves infeasible
    try:
        X, diag_p, delta_used = solve_type2_riccati(
            RiccatiInequalityProblem(A_shifted=A_s, N=sys.N, B=sys.B,
                                     delta=default_delta(sys) if delta is None else delta),
            operator)
    except RiccatiInfeasibleError as exc:
        k_max = stability_report(sys, 0.0).k_max_estimate
        raise RiccatiInfeasibleError(
            f"control bound k={k} is infeasible: perturbed mean-square abscissa "
            f"{exc.abscissa:.3e} >= 0 (largest feasible bound ~ {k_max:.6g})",
            abscissa=exc.abscissa, k_max=k_max) from exc
    if np.any(sys.B != 0.0):
        P, _ = invert_spd(X)
    else:
        # nothing is reachable: the honest Gramian is zero (and not minimal);
        # the inequality itself only pins P down to "inverse of any small X"
        P, X = np.zeros((sys.n, sys.n)), None
    Q, diag_q = operator.solve(-sys.C.T @ sys.C, "observability")
    lmi_margin = None
    if X is not None:
        lmi_margin = check_lmi_feasibility(sys, k, P, X=X).largest_eigenvalue
    return GramianPair(P=P, Q=Q, kind="type2_bilinear", k=float(k),
                       diagnostics=(diag_p, diag_q), delta=delta_used,
                       lmi_margin=lmi_margin,
                       minimal=_minimality(P, Q))


def mixed_pair_Q1_P2(sys: BilinearSystem, delta=None) -> GramianPair:
    """The pair (P2, Q1): the type-2 pair at k = 0, relabelled.  The output
    error bound built on it holds only when the control is small enough; use
    the mixed side-condition check on every trajectory before trusting it."""
    return replace(type2_gramians(sys, 0.0, delta), kind="mixed_Q1_P2")


def transform_gramians(pair: GramianPair, T, T_inv=None) -> GramianPair:
    """Covariant transformation P^ = T P T^T, Q^ = T^-T Q T^-1: the transformed
    pair satisfies the transformed system's defining relations, and the
    eigenvalues of P Q (hence the Hankel singular values) are unchanged."""
    T = np.asarray(T, dtype=float)
    if T_inv is None:
        T_inv = np.linalg.inv(T)
    P_hat = symmetrize(T @ pair.P @ T.T)
    Q_hat = symmetrize(T_inv.T @ pair.Q @ T_inv)
    return GramianPair(P=P_hat, Q=Q_hat, kind=pair.kind, k=pair.k,
                       diagnostics=pair.diagnostics, delta=pair.delta,
                       lmi_margin=None, minimal=pair.minimal)

