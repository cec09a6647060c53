"""Benchmark inputs built with numpy alone, so that a change to the program's
own generators cannot change what the benchmark measures.

Every system is returned as a plain dict in the program's system-file layout
(`{"n", "m", "p", "A", "B", "N", "C"}` with nested lists).
"""

import numpy as np

# 1-D heat equation on a rod: unit diffusivity, node spacing 0.1, so the
# stencil weight is 1 / 0.1^2 = 100 and the stiffest mode sits near -400.
# RK4 at h = 1e-3 then runs at |h * lambda| <= 0.4, well inside its
# stability region, for every rod length.
HEAT_STENCIL = 100.0
# heat-exchange rate at each end; the control scales it (bilinear term)
HEAT_EXCHANGE = 5.0


def as_system(A, B, N, C):
    A, B, C = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C))
    return {"n": A.shape[0], "m": B.shape[1], "p": C.shape[0],
            "A": A.tolist(), "B": B.tolist(),
            "N": [np.asarray(Ni, dtype=float).tolist() for Ni in N],
            "C": C.tolist()}


def arrays(system):
    """(A, B, [N_i], C) as float arrays."""
    return (np.array(system["A"], dtype=float), np.array(system["B"], dtype=float),
            [np.array(Ni, dtype=float) for Ni in system["N"]],
            np.array(system["C"], dtype=float))


def scalar_system():
    """a = -1, n_1 = 0.5, b = c = 1: P1 = Q1 = 4/7, and P = Q = 4/3 at k = 1."""
    return as_system([[-1.0]], [[1.0]], [[[0.5]]], [[1.0]])


def heat_system(n):
    """Rod of n interior nodes with zero-temperature ends.  Input i sets the
    rate at which end i exchanges heat with a unit-temperature reservoir,
    u_i * HEAT_EXCHANGE * (1 - x_end): a bilinear boundary control with
    B = g e_end and N_i = -g e_end e_end^T.  Outputs: mean and mid-rod
    temperature."""
    A = HEAT_STENCIL * (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
                        + np.diag(np.ones(n - 1), -1))
    B = np.zeros((n, 2))
    N = [np.zeros((n, n)), np.zeros((n, n))]
    for i, end in enumerate((0, n - 1)):
        B[end, i] = HEAT_EXCHANGE
        N[i][end, end] = -HEAT_EXCHANGE
    C = np.zeros((2, n))
    C[0, :] = 1.0 / n
    C[1, n // 2] = 1.0
    return as_system(A, B, N, C)


def reach_operator(A, N):
    """Dense n^2 x n^2 matrix of X -> A X + X A^T + sum N_i X N_i^T."""
    eye = np.eye(A.shape[0])
    K = np.kron(eye, A) + np.kron(A, eye)
    for Ni in N:
        K += np.kron(Ni, Ni)
    return K


def ms_abscissa(A, N):
    return float(np.max(np.linalg.eigvals(reach_operator(A, N)).real))


def random_system(n, m, p, rng, coupling=0.4, msab_target=-0.3):
    """Dense random system with spectral abscissa -1, its couplings scaled by
    0.7 until the mean-square abscissa is at most msab_target."""
    A0 = rng.standard_normal((n, n))
    A = A0 - (np.max(np.linalg.eigvals(A0).real) + 1.0) * np.eye(n)
    B = rng.standard_normal((n, m)) / np.sqrt(n)
    C = rng.standard_normal((p, n)) / np.sqrt(n)
    N = [coupling / np.sqrt(n) * rng.standard_normal((n, n)) for _ in range(m)]
    while ms_abscissa(A, N) > msab_target:
        N = [0.7 * Ni for Ni in N]
    return as_system(A, B, N, C)


def k_max(system):
    """Largest control bound with a mean-square stable shifted pair:
    the shift A + (k^2/2) I moves the abscissa by exactly k^2."""
    A, _B, N, _C = arrays(system)
    return float(np.sqrt(-ms_abscissa(A, N)))


def smooth_profile(n, rng, modes=4):
    """A seeded initial temperature profile: a few low sine modes."""
    xi = np.arange(1, n + 1) / (n + 1)
    coef = rng.uniform(-0.5, 0.5, size=modes) / np.arange(1, modes + 1)
    return sum(c * np.sin((j + 1) * np.pi * xi) for j, c in enumerate(coef))


# -- controls, evaluated by the benchmark itself and handed to the program ----

def sinusoid_params(m, k, rng, terms=3):
    """Amplitudes, frequencies and phases of a sinusoid bank whose pointwise
    norm is at most k: sqrt(sum_i (sum_j |a_ij|)^2) = k."""
    amps = rng.uniform(0.3, 1.0, size=(m, terms))
    amps *= k / np.linalg.norm(amps.sum(axis=1))
    freqs = rng.uniform(0.1, 2.5, size=(m, terms))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, terms))
    return amps, freqs, phases


def sinusoid(params, t):
    """u(t), shape (len(t), m), from sinusoid_params."""
    amps, freqs, phases = params
    t = np.atleast_1d(np.asarray(t, dtype=float))
    arg = 2.0 * np.pi * freqs[None] * t[:, None, None] + phases[None]
    return (amps[None] * np.sin(arg)).sum(axis=2)
