"""Trajectory simulation under bounded controls.

Fixed-step classical 4th-order integration keeps every run bit-reproducible.
One integrator serves every caller: `simulate_batch` stacks several models
with the same inputs block-diagonally (a full model beside its reductions is
the error system) and integrates them under several controls at once, with
one row of the state array per control; `simulate` is its one-model,
one-control case.  Memory grows with the stored trajectory only: the drift is
applied term by term at every stage, inputs are turned into forcing terms one
block of steps at a time, and the finiteness check runs once per block and
then finds the exact first bad step.

All L^2 norms use composite trapezoidal quadrature on the integration grid so
that quadrature bias cancels to first order when two sides of a bound are
compared.  The quadrature slack for bound checks is estimated per run by
Richardson extrapolation (compare the trapezoid sum with its stride-2
subsample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .system import BilinearSystem

DEFAULT_H_CAP = 1e-3
# integration steps between two finiteness checks
BLOCK_STEPS = 256
# sinusoid terms per input, and pieces per piecewise-constant signal, in
# `bounded_control_suite`
SUITE_TERMS = 3
SUITE_PIECES = 20


class SimulationBlowUpError(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


@dataclass(frozen=True)
class ControlSignal:
    """A control u: [0, T] -> R^m with a certified pointwise bound
    ||u(t)||_2 <= k_bound.

    The bound is guaranteed by construction for every kind (triangle
    inequality for sinusoid banks, per-piece renormalization for the random
    piecewise-constant signals)."""

    kind: str  # zero | constant | sinusoid_bank | piecewise_constant_random
    m: int
    k_bound: float
    label: str
    params: dict = field(default_factory=dict)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        u = self._evaluate(t)
        return u[0] if scalar else u

    def _evaluate(self, t):
        K = t.size
        if self.kind == "zero":
            return np.zeros((K, self.m))
        if self.kind == "constant":
            return np.broadcast_to(self.params["value"], (K, self.m)).copy()
        if self.kind == "sinusoid_bank":
            amps = self.params["amplitudes"]  # (m, J)
            freqs = self.params["frequencies"]
            phases = self.params["phases"]
            arg = 2.0 * np.pi * freqs[None, :, :] * t[:, None, None] + phases[None, :, :]
            return (amps[None, :, :] * np.sin(arg)).sum(axis=2)
        if self.kind == "piecewise_constant_random":
            values = self.params["values"]  # (SUITE_PIECES, m)
            T = self.params["T"]
            pieces = values.shape[0]
            idx = np.clip((t * pieces / T).astype(int), 0, pieces - 1)
            return values[idx]
        raise ValueError(f"unknown control kind {self.kind!r}")

    @classmethod
    def zero(cls, m, label="zero"):
        return cls(kind="zero", m=m, k_bound=0.0, label=label)

    @classmethod
    def constant(cls, value, label="constant"):
        value = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(kind="constant", m=value.size,
                   k_bound=float(np.linalg.norm(value)), label=label,
                   params={"value": value})

    @classmethod
    def sinusoid_bank(cls, amplitudes, frequencies, phases, label="sinusoid"):
        amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        # sup_t ||u(t)||_2 <= sqrt(sum_i (sum_j |a_ij|)^2) by the triangle inequality
        bound = float(np.linalg.norm(np.abs(amplitudes).sum(axis=1)))
        return cls(kind="sinusoid_bank", m=amplitudes.shape[0], k_bound=bound,
                   label=label,
                   params={"amplitudes": amplitudes,
                           "frequencies": np.atleast_2d(np.asarray(frequencies, dtype=float)),
                           "phases": np.atleast_2d(np.asarray(phases, dtype=float))})

    @classmethod
    def piecewise_constant(cls, values, T, label="piecewise"):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        bound = float(np.sqrt((values ** 2).sum(axis=1).max())) if values.size else 0.0
        return cls(kind="piecewise_constant_random", m=values.shape[1],
                   k_bound=bound, label=label,
                   params={"values": values, "T": float(T)})

def bounded_control_suite(m, k, T, seed, n_sinusoids=2, n_piecewise=1):
    """Deterministic-by-seed family of controls with ||u(t)||_2 <= k pointwise:
    the zero signal, a constant of norm k, scaled sinusoid banks, and random
    piecewise-constant signals renormalized piece by piece."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = np.random.default_rng(seed)
    signals = [ControlSignal.zero(m)]

    direction = rng.standard_normal(m)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0 else np.eye(m)[0]
    signals.append(ControlSignal.constant(k * direction, label="constant"))

    for s in range(n_sinusoids):
        amps = rng.uniform(0.3, 1.0, size=(m, SUITE_TERMS))
        freqs = rng.uniform(0.1, 2.5, size=(m, SUITE_TERMS))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, SUITE_TERMS))
        scale = float(np.linalg.norm(np.abs(amps).sum(axis=1)))
        amps = amps * (k / scale) if scale > 0 else amps * 0.0
        signals.append(ControlSignal.sinusoid_bank(amps, freqs, phases,
                                                   label=f"sinusoid-{s}"))

    for s in range(n_piecewise):
        raw = rng.standard_normal((SUITE_PIECES, m))
        norms = np.sqrt((raw ** 2).sum(axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        levels = k * rng.uniform(0.3, 1.0, size=(SUITE_PIECES, 1))
        signals.append(ControlSignal.piecewise_constant(raw / norms * levels, T,
                                                        label=f"piecewise-{s}"))
    return signals


@dataclass(frozen=True)
class Trajectory:
    """Samples of one simulation on a uniform grid."""

    grid: np.ndarray       # (K+1,)
    states: np.ndarray     # (K+1, n)
    inputs: np.ndarray     # (K+1, m)
    outputs: np.ndarray    # (K+1, p)

    @property
    def h(self):
        return float(self.grid[1] - self.grid[0]) if self.grid.size > 1 else 0.0

    @property
    def u_l2(self):
        return l2_richardson(self.inputs, self.grid)[0]

    @property
    def y_l2(self):
        return l2_richardson(self.outputs, self.grid)[0]


def cumulative_trapezoid(f, grid):
    out = np.zeros_like(f)
    if f.size > 1:
        out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(grid))
    return out


def default_step(sys: BilinearSystem) -> float:
    a_norm = float(np.linalg.norm(sys.A, 2))
    return min(DEFAULT_H_CAP, 0.01 / a_norm) if a_norm > 0 else DEFAULT_H_CAP


def simulate(sys: BilinearSystem, x0, u: ControlSignal, T, h=None) -> Trajectory:
    """Integrate dx/dt = A x + B u + sum_i N_i x u_i with classical 4th-order
    steps of fixed size h on [0, T]; y = C x on the same grid.

    The grid is uniform with K = round(T / h) steps (h is nudged to T / K when
    T is not an exact multiple).  Raises SimulationBlowUpError with the first
    bad step if the state leaves the representable range.  This is the
    one-model, one-control case of `simulate_batch`."""
    if h is None:
        h = default_step(sys)
    return simulate_batch([sys], [u], T, h, x0=[x0])[0][0]


def simulate_batch(systems, controls, T, h, x0=None):
    """Integrate several models with the same number of inputs under several
    controls in one loop.

    The models are stacked block-diagonally into one system of dimension
    n_aug = sum of their n (for a full model and its reductions, the error
    system), and the S controls into the rows of an (S, n_aug) state.  Every
    stage evaluates x A^T + u B^T + sum_i u_i (x N_i^T) for all rows at once,
    on the grid that `simulate` uses.  `x0` is None (zero initial states) or
    one initial state per model, of shape (n,) or (S, n).

    Returns trajs, where trajs[i][s] is the Trajectory of systems[i] under
    controls[s].  Raises SimulationBlowUpError with the first step at which
    the sum of some row of the stacked state is not finite."""
    systems, controls = list(systems), list(controls)
    m = systems[0].m
    if any(sys.m != m for sys in systems) or any(u.m != m for u in controls):
        raise ValueError("every model and control must have the same number of inputs")
    if h <= 0 or T < h:
        raise ValueError(f"need 0 < h <= T, got h={h}, T={T}")
    K = max(1, int(round(T / h)))
    h = T / K
    grid = np.linspace(0.0, T, K + 1)
    half_grid = np.linspace(0.0, T, 2 * K + 1)
    U = np.stack([u(half_grid) for u in controls], axis=1)  # (2K+1, S, m)

    bounds = np.cumsum([0] + [sys.n for sys in systems])
    B = np.vstack([sys.B for sys in systems])
    # x W = [x A^T, x N_i^T, ...] for the inputs whose coupling is nonzero
    coupled = [i for i in range(m) if any(np.any(sys.N[i]) for sys in systems)]
    W = np.hstack([block_diag(*(sys.A for sys in systems)).T]
                  + [block_diag(*(sys.N[i] for sys in systems)).T for i in coupled])

    states = np.zeros((K + 1, len(controls), bounds[-1]))
    for i, x0_i in enumerate(x0 if x0 is not None else []):
        states[0, :, bounds[i]:bounds[i + 1]] = np.asarray(x0_i, dtype=float)
    _integrate(states, U, W, B.T, coupled, h, grid)

    inputs = [np.ascontiguousarray(U[::2, s]) for s in range(len(controls))]

    def trajectory(sys, s, cols):
        x = np.ascontiguousarray(states[:, s, cols])
        return Trajectory(grid=grid, states=x, inputs=inputs[s], outputs=x @ sys.C.T)

    return [[trajectory(sys, s, slice(lo, hi)) for s in range(len(controls))]
            for sys, lo, hi in zip(systems, bounds[:-1], bounds[1:])]


def _integrate(states, U, W, Bt, coupled, h, grid):
    """RK4 over the whole grid, filling states[1:] from states[0].  The
    drift enters through W = [A^T, N_i^T for i in coupled]; the forcing
    u B^T is formed one block of BLOCK_STEPS steps at a time, and the
    finiteness check runs once per block."""
    K, n = states.shape[0] - 1, states.shape[2]
    half_h, sixth_h = 0.5 * h, h / 6.0
    x = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, K, BLOCK_STEPS):
            last = min(first + BLOCK_STEPS, K)
            Ub = U[2 * first:2 * last + 1]
            BUb = Ub @ Bt
            terms = [(Ub[:, :, i:i + 1], slice((c + 1) * n, (c + 2) * n))
                     for c, i in enumerate(coupled)]

            def f(x, j):
                y = x @ W
                dx = y[:, :n] + BUb[j]
                for u, cols in terms:
                    dx += u[j] * y[:, cols]
                return dx

            for step in range(last - first):
                j = 2 * step
                k1 = f(x, j)
                k2 = f(x + half_h * k1, j + 1)
                k3 = f(x + half_h * k2, j + 1)
                k4 = f(x + h * k3, j + 2)
                x = x + sixth_h * (k1 + 2.0 * (k2 + k3) + k4)
                states[first + step + 1] = x
            finite = np.isfinite(states[first + 1:last + 1].sum(axis=2)).all(axis=1)
            if not finite.all():
                step = first + 1 + int(np.argmin(finite))
                raise SimulationBlowUpError(
                    f"state became non-finite at step {step} (t = {grid[step]:.6g})",
                    step=step, time=float(grid[step]))


def coarse_trapezoid(f, grid):
    """Trapezoidal integral of f on every second grid point (the last
    interval alone when the step count is odd): the 2h sum of a Richardson
    pair."""
    K = f.size - 1
    K2 = K if K % 2 == 0 else K - 1
    total = np.trapezoid(f[:K2 + 1:2], grid[:K2 + 1:2])
    if K2 != K:
        total += np.trapezoid(f[K2:], grid[K2:])
    return total


def l2_richardson(values, grid):
    """(norm at step h, norm at step 2h) for the trapezoidal L^2 norm; the
    difference over 3 estimates the quadrature error of the h result."""
    sq = (np.atleast_2d(values.T).T ** 2).sum(axis=1)
    fine = np.sqrt(np.trapezoid(sq, grid))
    coarse = np.sqrt(max(coarse_trapezoid(sq, grid), 0.0))
    return float(fine), float(coarse)


def quadrature_slack(*pairs, floor=0.0):
    """Slack tolerance for one bound check: sum of Richardson estimates
    |I_h - I_2h| / 3 over the quadratures entering the check, plus a floor
    covering integrator and rounding noise at the problem's scale."""
    eps = sum(abs(a - b) / 3.0 for a, b in pairs)
    return float(eps + floor)
