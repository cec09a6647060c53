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

Each public solve factors its own operator.  Its private form (`_type1_pair`,
`_type2_pair`, `_mixed_pair`) takes a `LyapunovOperator`, so that the type-1
and mixed pairs of one system can share the factored operator of (A, N).
`_operator` is the one place that shifts the drift for a solve.

A positive-definite Lyapunov solution with -I certifies mean-square
stability, so a solve that succeeds computes no abscissa.  One
`stability_report` diagnoses a solve that fails: where the (shifted)
mean-square abscissa is >= 0 it raises MeanSquareInstabilityError (type 1)
or RiccatiInfeasibleError (type 2), else the solve's own error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    analogue with -C^T C, from one factored operator of (A, N).

    Its reachability solution Y of the equation with -I certifies mean-square
    stability when positive definite (see `solve_type2_riccati`); only when
    that fails is the abscissa taken from `stability_report`, and
    MeanSquareInstabilityError is raised if it is >= 0."""
    return _type1_pair(sys, _operator(sys, 0.0))


def _type1_pair(sys, operator):
    """`type1_gramians` from `operator`, the `LyapunovOperator` of (A, N)."""
    try:
        certified = operator.solve(-np.eye(sys.n), "reachability")[1].definiteness_margin > 0.0
    except (MeanSquareInstabilityError, ConvergenceError):
        certified = False
    if not certified:
        msab = stability_report(sys).ms_abscissa
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


def _operator(sys, k):
    """The `LyapunovOperator` of the drift A + (k^2/2) I and N, not yet factored."""
    return LyapunovOperator(sys.A + 0.5 * float(k) ** 2 * np.eye(sys.n), sys.N)


def type2_gramians(sys: BilinearSystem, k, delta=None) -> GramianPair:
    """Control-bounded Gramians: P from the inequality and Q from the shifted
    observability equation, both at drift A + (k^2/2) I.  At k = 0 this is
    the pair (P2, Q1).

    Raises RiccatiInfeasibleError (with the perturbed abscissa and the
    largest feasible bound of `stability_report(sys, k)` attached) if k is
    too large for the system.  The Lyapunov solve that starts the P solve's
    barrier and the Q solve share one factored shifted operator."""
    return _type2_pair(sys, k, delta, _operator(sys, k))


def _type2_pair(sys, k, delta, operator):
    """`type2_gramians` from `operator`, the `LyapunovOperator` of its drift."""
    if k < 0:
        raise ValueError(f"control bound k must be nonnegative, got {k}")
    try:
        X, diag_p, delta_used = solve_type2_riccati(RiccatiInequalityProblem(
            operator, sys.B, default_delta(sys) if delta is None else delta))
    except (MeanSquareInstabilityError, ConvergenceError) as exc:
        rep = stability_report(sys, k)
        if rep.perturbed_ms_abscissa < 0.0:
            raise
        raise RiccatiInfeasibleError(
            f"control bound k={k} is infeasible: perturbed mean-square abscissa "
            f"{rep.perturbed_ms_abscissa:.3e} >= 0 (largest feasible bound ~ "
            f"{rep.k_max_estimate:.6g})",
            abscissa=rep.perturbed_ms_abscissa, k_max=rep.k_max_estimate) from exc
    if np.any(sys.B != 0.0):
        P = invert_spd(X)
    else:
        # nothing is reachable: the honest Gramian is zero (and not minimal);
        # the inequality itself only pins P down to "inverse of any small X"
        P, X = np.zeros((sys.n, sys.n)), None
    Q, diag_q = operator.solve(-sys.C.T @ sys.C, "observability")
    lmi_margin = None if X is None else check_lmi_feasibility(sys, k, P, X=X).largest_eigenvalue
    return GramianPair(P=P, Q=Q, kind="type2_bilinear", k=float(k),
                       diagnostics=(diag_p, diag_q), delta=delta_used,
                       lmi_margin=lmi_margin, minimal=_minimality(P, Q))


def mixed_pair_Q1_P2(sys: BilinearSystem, delta=None) -> GramianPair:
    """The pair (P2, Q1): the type-2 pair at k = 0, relabelled.  The output
    error bound built on it holds only when the control is small enough; use
    the mixed side-condition check on every trajectory before trusting it."""
    return _mixed_pair(sys, delta, _operator(sys, 0.0))


def _mixed_pair(sys, delta, operator):
    """`mixed_pair_Q1_P2` from `operator`, the `LyapunovOperator` of (A, N)."""
    return replace(_type2_pair(sys, 0.0, delta, operator), kind="mixed_Q1_P2")


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

