"""Correctness checks computed apart from the program: numpy and scipy only,
from the matrices the program returns.  Each check returns a list of
problems (empty when it passes), so the benchmark can report all of them.

`scipy.integrate` is imported where it is used, after the timed rounds, so
that neither set-up time nor peak memory counts the benchmark's own import.
"""

import numpy as np

from models import sinusoid

LMI_TOL = 1e-8
RESIDUAL_TOL = 1e-8
HSV_TOL = 1e-8
BOUND_CONSTANT_TOL = 1e-12
# the inequality solver's slack delta (1e-6 * ||B B^T||) moves P by O(delta)
SCALAR_TYPE2_TOL = 1e-5
SCALAR_TYPE1_TOL = 1e-10
# reference integrations run far below the tolerances they are compared at
IVP_RTOL, IVP_ATOL = 1e-11, 1e-13
QUAD_POINTS = 4001


def lmi_largest_eigenvalue(A, B, N, k, P):
    """Largest eigenvalue of the Schur-complement block
    [[A_s^T X + X A_s + sum N_i^T X N_i, X B], [B^T X, -I]] with X = P^-1 and
    A_s = A + (k^2/2) I; P satisfies the type-2 inequality iff it is <= 0."""
    n, m = B.shape
    X = np.linalg.inv(0.5 * (P + P.T))
    X = 0.5 * (X + X.T)
    A_s = A + 0.5 * k * k * np.eye(n)
    top = A_s.T @ X + X @ A_s + sum(Ni.T @ X @ Ni for Ni in N)
    S = np.block([[top, X @ B], [B.T @ X, -np.eye(m)]])
    return float(np.linalg.eigvalsh(0.5 * (S + S.T)).max())


def lyapunov_residual(M, N, X, RHS, side):
    """Relative residual of M X + X M^T + sum N_i X N_i^T = RHS (reachability)
    or of the transposed form (observability)."""
    if side == "reachability":
        R = M @ X + X @ M.T + sum(Ni @ X @ Ni.T for Ni in N)
    else:
        R = M.T @ X + X @ M + sum(Ni.T @ X @ Ni for Ni in N)
    return float(np.linalg.norm(R - RHS) / np.linalg.norm(RHS))


def hankel_error(P, Q, hsv):
    """Largest |sigma_i^2 - lambda_i(P Q)| relative to sigma_1^2, with the
    eigenvalues of P Q taken as those of the symmetric L^T P L, Q = L L^T.
    (Compared squared: a square root would amplify rounding in the
    eigenvalues that sit near zero.)"""
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    L = V * np.sqrt(np.clip(w, 0.0, None))
    lam = np.sort(np.linalg.eigvalsh(L.T @ (0.5 * (P + P.T)) @ L))[::-1]
    hsv = np.asarray(hsv, dtype=float)
    return float(np.max(np.abs(hsv ** 2 - lam[:hsv.size])) / hsv[0] ** 2)


def check_reduction(case, system, pair, bal, rom):
    """The properties every reduction must have, for one (system, kind)
    reduction.  `system` holds (A, B, N, C) arrays; `rom` is None for
    the scalar system, which has no order to truncate to."""
    A, B, N, C = system
    label = case["label"]
    problems = []
    if pair.kind == "type2_bilinear":
        k = pair.k
        A_s = A + 0.5 * k * k * np.eye(A.shape[0])
        lam = lmi_largest_eigenvalue(A, B, N, k, pair.P)
        if not lam <= LMI_TOL:
            problems.append(f"{label}: Schur-block eigenvalue {lam:.3e} > {LMI_TOL}")
        res = lyapunov_residual(A_s, N, pair.Q, -C.T @ C, "observability")
        if not res <= RESIDUAL_TOL:
            problems.append(f"{label}: Q residual {res:.3e} > {RESIDUAL_TOL}")
    else:
        for name, X, RHS, side in (("P1", pair.P, -B @ B.T, "reachability"),
                                   ("Q1", pair.Q, -C.T @ C, "observability")):
            res = lyapunov_residual(A, N, X, RHS, side)
            if not res <= RESIDUAL_TOL:
                problems.append(f"{label}: {name} residual {res:.3e} > {RESIDUAL_TOL}")
    err = hankel_error(pair.P, pair.Q, bal.hsv)
    if not err <= HSV_TOL:
        problems.append(f"{label}: Hankel values off sqrt(eig(PQ)) by {err:.3e}")
    if rom is not None:
        expected = 2.0 * float(np.sum(np.asarray(bal.hsv)[rom.r:]))
        if not abs(rom.bound_all - expected) <= BOUND_CONSTANT_TOL * max(expected, 1e-300):
            problems.append(f"{label}: bound constant {rom.bound_all!r} != "
                            f"2 * tail sum {expected!r}")
    return problems


def check_scalar(pairs):
    """The closed forms of the scalar system a = -1, n1 = 0.5, b = c = 1."""
    problems = []
    expected = {"type1": (4.0 / 7.0, SCALAR_TYPE1_TOL),
                "type2_bilinear": (4.0 / 3.0, SCALAR_TYPE2_TOL)}
    for pair in pairs:
        value, tol = expected[pair.kind]
        for name, X in (("P", pair.P), ("Q", pair.Q)):
            got = float(np.asarray(X).reshape(-1)[0])
            if not abs(got - value) <= tol * value:
                problems.append(f"scalar {pair.kind}: {name} = {got!r}, expected {value!r}")
    return problems


# -- reference integration -----------------------------------------------------

def integrate(A, B, N, x0, params, T, t_eval):
    """Reference state trajectory of dx/dt = A x + B u + sum_i u_i N_i x."""
    from scipy.integrate import solve_ivp

    def rhs(t, x):
        u = sinusoid(params, t)[0]
        dx = A @ x + B @ u
        for Ni, ui in zip(N, u):
            dx += ui * (Ni @ x)
        return dx

    sol = solve_ivp(rhs, (0.0, T), x0, method="DOP853", t_eval=t_eval,
                    rtol=IVP_RTOL, atol=IVP_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def output_error(full, rom_arrays, params, T):
    """(||y - y_r||_{L2_T}, ||u||_{L2_T}) from zero initial states: both models
    integrated by solve_ivp, the norms by Simpson's rule."""
    from scipy.integrate import simpson

    grid = np.linspace(0.0, T, QUAD_POINTS)
    A, B, N, C = full
    Ar, Br, Nr, Cr = rom_arrays
    x = integrate(A, B, N, np.zeros(A.shape[0]), params, T, grid)
    xr = integrate(Ar, Br, Nr, np.zeros(Ar.shape[0]), params, T, grid)
    diff = x @ C.T - xr @ Cr.T
    err = np.sqrt(simpson((diff ** 2).sum(axis=1), x=grid))
    u_norm = np.sqrt(simpson((sinusoid(params, grid) ** 2).sum(axis=1), x=grid))
    return float(err), float(u_norm)


def check_trajectory(outputs, reference, tol):
    """Largest output deviation from the reference, and whether it is within
    tol."""
    dev = float(np.max(np.abs(np.asarray(outputs) - np.asarray(reference))))
    return dev, dev <= tol


# -- campaign report -----------------------------------------------------------

MIN_CERTIFIED_BOUND_CASES = 100


def check_campaign_report(report):
    problems = []
    summary = report["summary"]
    for key in ("certified_violations", "certified_hard_failures", "skipped"):
        if summary[key] != 0:
            problems.append(f"campaign summary {key} = {summary[key]}")
    bound_cases = [c for c in report["cases"]
                   if c["check"] in ("error_bound_thm", "error_bound_cor")
                   and c["certified"] and c["passed"] is not None]
    for c in bound_cases:
        if not c["lhs"] <= c["rhs"] + c["eps_q"]:
            problems.append(f"campaign case {c['case']}: lhs {c['lhs']!r} > "
                            f"rhs {c['rhs']!r} + eps_q {c['eps_q']!r}")
    if len(bound_cases) < MIN_CERTIFIED_BOUND_CASES:
        problems.append(f"campaign has {len(bound_cases)} certified error-bound cases, "
                        f"fewer than {MIN_CERTIFIED_BOUND_CASES}")
    return problems
