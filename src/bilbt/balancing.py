"""Square-root balancing and truncation.

Factor P = K K^T and Q = L L^T, take the SVD K^T L = V S U^T, and build

    T = S^-1/2 U^T L^T,        T^-1 = K V S^-1/2,

so that both transformed Gramians equal the diagonal matrix of Hankel
singular values S.  Truncating the balanced realization at order r keeps the
leading blocks and certifies the output error constant 2 * (tail sum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gramians import GramianPair
from .kronecker import symmetrize
from .system import BilinearSystem, transform

SQRT_CLAMP_REL = 1e-12
HSV_FLOOR_REL = 1e-12
DISTINCT_TOL = 1e-10


class BalancingError(RuntimeError):
    pass


def psd_sqrt_factor(M):
    """Factor a symmetric PSD matrix as F F^T.

    Cholesky when positive definite; otherwise a symmetric eigendecomposition
    with eigenvalues below SQRT_CLAMP_REL * lambda_max clamped to zero."""
    M = symmetrize(np.asarray(M, dtype=float))
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(M)
    floor = SQRT_CLAMP_REL * max(w.max(), 0.0)
    w = np.where(w > floor, w, 0.0)
    return V * np.sqrt(w)


@dataclass(frozen=True)
class BalancedRealization:
    """A system in balanced coordinates together with the transformation used."""

    system: BilinearSystem
    T: np.ndarray
    T_inv: np.ndarray
    hsv: np.ndarray  # nonincreasing, positive
    gramian_kind: str
    k: float


def square_root_balance(sys: BilinearSystem, gramians: GramianPair) -> BalancedRealization:
    """Balance a system so both Gramians become diag(hsv).

    The SVD column signs are fixed so the largest-magnitude entry of each
    right singular vector is positive, making T deterministic.  Raises
    BalancingError when the Gramian product is numerically rank deficient
    (system not reachable/observable enough to balance)."""
    P = symmetrize(gramians.P)
    Q = symmetrize(gramians.Q)
    K = psd_sqrt_factor(P)
    L = psd_sqrt_factor(Q)

    V, s, Uh = np.linalg.svd(K.T @ L)
    U = Uh.T
    if s[0] <= 0.0 or s[-1] <= HSV_FLOOR_REL * s[0]:
        raise BalancingError(
            f"Hankel spectrum numerically rank deficient (sigma_min/sigma_max = "
            f"{s[-1] / s[0] if s[0] > 0 else 0.0:.3e}); the Gramian pair does not "
            "support balancing at this order"
        )
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]

    s_isqrt = 1.0 / np.sqrt(s)
    T = (s_isqrt[:, None] * U.T) @ L.T
    T_inv = (K @ V) * s_isqrt[None, :]

    identity_err = np.linalg.norm(T @ T_inv - np.eye(sys.n))
    if identity_err > 1e-8:
        raise BalancingError(
            f"balancing transformation inconsistent: ||T T^-1 - I|| = {identity_err:.3e}"
        )

    balanced = transform(sys, T, T_inv=T_inv)

    sigma = np.diag(s)
    p_err = np.linalg.norm(T @ P @ T.T - sigma) / np.linalg.norm(sigma)
    q_err = np.linalg.norm(T_inv.T @ Q @ T_inv - sigma) / np.linalg.norm(sigma)
    if max(p_err, q_err) > 1e-8:
        raise BalancingError(
            f"transformed Gramians deviate from diag(hsv): relative errors "
            f"{p_err:.3e} (P), {q_err:.3e} (Q)"
        )

    return BalancedRealization(system=balanced, T=T, T_inv=T_inv, hsv=s,
                               gramian_kind=gramians.kind, k=gramians.k)


@dataclass(frozen=True)
class ReducedModel:
    """Order-r truncation of a balanced realization with its certified bound
    constants: bound_all = 2 * sum(tail), bound_distinct = 2 * sum over groups
    of tail values equal within distinct_tolerance (relative)."""

    system: BilinearSystem
    r: int
    tail_hsv: np.ndarray
    bound_all: float
    bound_distinct: float
    distinct_tolerance: float
    gramian_kind: str
    k: float
    hsv: np.ndarray  # full spectrum of the parent balanced realization


def group_distinct(values):
    """Group a nonincreasing sequence into runs equal within DISTINCT_TOL;
    returns the group representatives (the largest member of each run)."""
    reps = []
    for v in values:
        if not reps or abs(v - reps[-1]) > DISTINCT_TOL * max(abs(reps[-1]), 1e-300):
            reps.append(float(v))
    return reps


def truncate(bal: BalancedRealization, r) -> ReducedModel:
    """Keep the leading r states of a balanced realization."""
    full = bal.system
    r = int(r)
    if not 1 <= r < full.n:
        raise ValueError(f"r={r} out of range [1, {full.n - 1}]")
    tail = np.asarray(bal.hsv[r:], dtype=float)
    reps = group_distinct(tail)
    return ReducedModel(
        system=BilinearSystem.from_matrices(full.A[:r, :r], full.B[:r],
                                            [Ni[:r, :r] for Ni in full.N],
                                            full.C[:, :r]),
        r=r,
        tail_hsv=tail,
        bound_all=2.0 * float(tail.sum()),
        bound_distinct=2.0 * float(sum(reps)),
        distinct_tolerance=DISTINCT_TOL,
        gramian_kind=bal.gramian_kind,
        k=bal.k,
        hsv=np.asarray(bal.hsv, dtype=float),
    )


def order_selector(hsv, tolerance) -> int:
    """Smallest order r >= 1 whose certified bound 2 * sum(hsv[r:]) is within
    tolerance; n when no reduction achieves it."""
    hsv = np.asarray(hsv, dtype=float)
    n = hsv.size
    tail = 2.0 * np.cumsum(hsv[::-1])[::-1]  # tail[r] = 2 * sum(hsv[r:])
    for r in range(1, n):
        if tail[r] <= tolerance:
            return r
    return n
