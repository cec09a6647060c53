"""Bilinear control systems: the model type, validation, stability spectra,
state-space transformations, rescaling and JSON I/O.

The state equation is

    dx/dt = A x + B u + sum_i N_i x u_i,      y = C x,

with A (n x n), B (n x m), one coupling matrix N_i per input channel and
C (p x n).  All types are immutable after construction; the operations are
pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import kronecker

COND_CAP = 1e8


def _freeze(a):
    arr = np.array(a, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BilinearSystem:
    """Dense realization (A, B, N_1..N_m, C) with dimensions (n, m, p)."""

    A: np.ndarray
    B: np.ndarray
    N: tuple
    C: np.ndarray
    n: int
    m: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "B", _freeze(self.B))
        object.__setattr__(self, "N", tuple(_freeze(Ni) for Ni in self.N))
        object.__setattr__(self, "C", _freeze(self.C))

    @classmethod
    def from_matrices(cls, A, B, N, C):
        """Build a system inferring (n, m, p) from the matrix shapes."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        N = [np.atleast_2d(np.asarray(Ni, dtype=float)) for Ni in N]
        return cls(A=A, B=B, N=tuple(N), C=C,
                   n=A.shape[0], m=B.shape[1], p=C.shape[0])


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    issues: tuple

    def __bool__(self):
        return self.ok


def validate(sys: BilinearSystem) -> ValidationResult:
    """Check every model invariant and report all violations, not just the first."""
    issues = []
    n, m, p = sys.n, sys.m, sys.p
    for name, dim in (("n", n), ("m", m), ("p", p)):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            issues.append(f"dimension {name}={dim} must be a positive integer")
    if sys.A.shape != (n, n):
        issues.append(f"A has shape {sys.A.shape}, expected ({n}, {n})")
    if sys.B.shape != (n, m):
        issues.append(f"B has shape {sys.B.shape}, expected ({n}, {m})")
    if sys.C.shape != (p, n):
        issues.append(f"C has shape {sys.C.shape}, expected ({p}, {n})")
    if len(sys.N) != m:
        if len(sys.N) == 0 and m > 0:
            issues.append(f"N list is empty but m={m}: one coupling matrix per input required")
        else:
            issues.append(f"N has {len(sys.N)} matrices, expected m={m}")
    for i, Ni in enumerate(sys.N):
        if Ni.shape != (n, n):
            issues.append(f"N[{i}] has shape {Ni.shape}, expected ({n}, {n})")
    for name, mat in (("A", sys.A), ("B", sys.B), ("C", sys.C)):
        if not np.all(np.isfinite(mat)):
            issues.append(f"{name} contains non-finite entries")
    for i, Ni in enumerate(sys.N):
        if not np.all(np.isfinite(Ni)):
            issues.append(f"N[{i}] contains non-finite entries")
    return ValidationResult(ok=not issues, issues=tuple(issues))


@dataclass(frozen=True)
class StabilityReport:
    """Stability spectra of a bilinear system.

    `ms_abscissa` is the largest real part of the spectrum of
    X -> A X + X A^T + sum N_i X N_i^T, the same as that of the n^2 x n^2
    operator I kron A + A kron I + sum N_i kron N_i; negative means the
    Gramian equations have positive semidefinite solutions.  The perturbed
    value replaces A by A + (k^2/2) I, which shifts the abscissa by exactly
    k^2, so it is ms_abscissa + k * k and takes no eigensolve of its own.
    `k_max_estimate` is the largest float k that keeps it negative.
    """

    hurwitz: bool
    spectral_abscissa_A: float
    ms_abscissa: float
    k: float
    perturbed_ms_abscissa: float
    k_max_estimate: float


def _k_max(msab):
    """The largest float k with msab + k * k < 0, or 0 if msab >= 0."""
    if msab >= 0.0:
        return 0.0
    # sqrt rounds to nearest, so the float above sqrt(-msab) squares to at
    # least -msab; only steps down can be needed
    k = float(np.sqrt(-msab))
    while msab + k * k >= 0.0:
        k = float(np.nextafter(k, 0.0))
    return k


def stability_report(sys: BilinearSystem, k=0.0) -> StabilityReport:
    """Compute Hurwitz and mean-square stability spectra plus the largest
    feasible control bound.

    Dense path only: n is capped at `kronecker.MAX_KRON_N`, and a larger
    system raises `KroneckerCapError`.  The cap holds for the whole
    pipeline because this eigensolve and every Gramian solve take their
    operator from `kronecker.lyapunov_matrix`, the one place that checks it.
    One mean-square eigensolve serves every k.
    """
    if k < 0:
        raise ValueError(f"control bound k must be nonnegative, got {k}")
    k = float(k)
    alpha = kronecker.spectral_abscissa(sys.A)
    msab = kronecker.ms_abscissa(sys.A, sys.N)
    return StabilityReport(
        hurwitz=alpha < 0.0,
        spectral_abscissa_A=alpha,
        ms_abscissa=msab,
        k=k,
        perturbed_ms_abscissa=msab + k * k,
        k_max_estimate=_k_max(msab),
    )


def rescale(sys: BilinearSystem, gamma) -> BilinearSystem:
    """Divide B and every N_i by gamma > 0.

    Driving the rescaled system with u~ = gamma * u reproduces the original
    state trajectory, so a large gamma trades smaller coupling matrices
    against a tighter admissible control bound.
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return BilinearSystem(
        A=sys.A, B=sys.B / gamma, N=tuple(Ni / gamma for Ni in sys.N),
        C=sys.C, n=sys.n, m=sys.m, p=sys.p,
    )


def transform(sys: BilinearSystem, T, T_inv=None) -> BilinearSystem:
    """Similarity transform x^ = T x: A^ = T A T^-1, B^ = T B, C^ = C T^-1,
    N_i^ = T N_i T^-1.  The input-output map is unchanged.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (sys.n, sys.n):
        raise ValueError(f"T has shape {T.shape}, expected ({sys.n}, {sys.n})")
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise ValueError(
            f"transformation condition number {cond:.3e} exceeds cap {COND_CAP:.1e}"
        )
    if T_inv is None:
        T_inv = np.linalg.inv(T)
    else:
        T_inv = np.asarray(T_inv, dtype=float)
    return BilinearSystem(
        A=T @ sys.A @ T_inv,
        B=T @ sys.B,
        N=tuple(T @ Ni @ T_inv for Ni in sys.N),
        C=sys.C @ T_inv,
        n=sys.n, m=sys.m, p=sys.p,
    )


class SystemFormatError(ValueError):
    """System file is structurally malformed (not a semantic validation failure)."""


def system_to_dict(sys: BilinearSystem) -> dict:
    return {
        "n": int(sys.n), "m": int(sys.m), "p": int(sys.p),
        "A": sys.A.tolist(), "B": sys.B.tolist(),
        "N": [Ni.tolist() for Ni in sys.N], "C": sys.C.tolist(),
    }


def system_from_dict(data: dict) -> BilinearSystem:
    try:
        n, m, p = int(data["n"]), int(data["m"]), int(data["p"])
        A = np.array(data["A"], dtype=float)
        B = np.array(data["B"], dtype=float)
        N = tuple(np.array(Ni, dtype=float) for Ni in data["N"])
        C = np.array(data["C"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemFormatError(f"malformed system object: {exc}") from exc
    for name, mat in (("A", A), ("B", B), ("C", C)) + tuple(
        (f"N[{i}]", Ni) for i, Ni in enumerate(N)
    ):
        if mat.ndim != 2:
            raise SystemFormatError(f"{name} is not a 2-d array")
    return BilinearSystem(A=A, B=B, N=N, C=C, n=n, m=m, p=p)


def save_system(sys: BilinearSystem, path):
    """Write the system as JSON; doubles use the shortest round-trip decimal form."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(sys), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_system(path) -> BilinearSystem:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemFormatError("system file must contain a JSON object")
    return system_from_dict(data)
