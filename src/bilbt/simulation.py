"""Trajectory simulation under bounded controls.

Fixed-step classical 4th-order integration keeps every run bit-reproducible.
One integrator serves every caller.  `simulate_groups` steps several groups
in one loop: a group stacks several models with the same inputs
block-diagonally (a full model beside its reductions is the error system)
under several controls, one row per control, and the groups are zero-padded
to one (groups, rows, n) state, so each stage is one stacked product with
every group's drift, coupling and forcing, applied to the state extended by
u_i x[R] (R: the columns that the couplings N_i read) and by u.
`simulate` is its one-model, one-control case.  The RK4 steps are in
scaled-increment form: the stage matrices are pre-scaled by h/2 and h, so
each stage product returns its increment d and the step is
x + (d1 + 2 d2 + d3 + d4) / 3, one product of the stacked increments.
Memory grows with the stored trajectories only: the extended state of each
step is a row of a block whose size is bounded in steps and in bytes,
inputs are gathered one block at a time, states go from the block straight
into one array per model (its runs under every control), and the
finiteness check runs once per block and then finds each group's exact
first bad step.  A step is only its array
calls: the views it reads are made before the loop.

All L^2 norms use composite trapezoidal quadrature on the integration grid so
that quadrature bias cancels to first order when two sides of a bound are
compared.  The quadrature slack for bound checks is estimated per run by
Richardson extrapolation: `trapezoid_pair` gives the trapezoid sum with its
stride-2 subsample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .system import BilinearSystem

# integration steps between two finiteness checks, at most, and the most
# bytes that a block's per-step rows of the stage operand may take
BLOCK_STEPS = 256
BLOCK_BYTES = 2 ** 20
# the most steps of one grid: a trajectory stores (K + 1) 8-byte values per
# state, input and output, 8 MB each at this cap
MAX_STEPS = 10 ** 6
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
    """Samples of one simulation on a uniform grid, run under `control`."""

    grid: np.ndarray       # (K+1,)
    states: np.ndarray     # (K+1, n)
    inputs: np.ndarray     # (K+1, m): control on the grid
    outputs: np.ndarray    # (K+1, p)
    control: ControlSignal

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


def simulate(sys: BilinearSystem, x0, u: ControlSignal, T, h) -> Trajectory:
    """Integrate dx/dt = A x + B u + sum_i N_i x u_i with classical 4th-order
    steps of fixed size h on [0, T]; y = C x on the same grid.

    The grid is uniform with K = round(T / h) steps (h is nudged to T / K when
    T is not an exact multiple).  Raises SimulationBlowUpError with the first
    bad step if the state leaves the representable range.  This is the
    one-model, one-control case of `simulate_groups`."""
    return simulate_groups([([sys], [u], [x0])], T, h)[0][0][0]


def simulate_groups(groups, T, h):
    """Integrate several groups of models under several controls in one loop.

    A group is `(systems, controls, x0)`: models with the same number of
    inputs, stacked block-diagonally into one system of dimension n_aug = sum
    of their n (for a full model and its reductions, the error system),
    under S controls, one row of an (S, n_aug) state each.  `x0` is None
    (zero initial states) or one initial state per model, of shape (n,) or
    (S, n).  Every model and control of every group must have the same
    number of inputs.  The groups' stacked states are zero-padded to one
    (groups, S_max, n_max) array, so each stage is one stacked product with
    the drift, couplings and forcing of every group, on the grid that
    `simulate` uses.  A grid has at most MAX_STEPS steps: an h that makes
    more raises ValueError before anything is allocated.

    Returns one list trajs per group, in list order, where trajs[i][s] is
    the Trajectory of systems[i] under controls[s], its `control`.  Raises
    SimulationBlowUpError for the first group in list order that becomes
    non-finite, at that group's own first bad step (the first at which the
    sum of some row of its stacked state is not finite)."""
    groups = [(list(systems), list(controls), x0) for systems, controls, x0 in groups]
    input_counts = ({sys.m for systems, _, _ in groups for sys in systems}
                    | {u.m for _, controls, _ in groups for u in controls})
    if len(input_counts) > 1:
        raise ValueError("every model and control must have the same number of inputs")
    if not 0 < h <= T < np.inf:
        raise ValueError(f"need 0 < h <= T < inf, got h={h}, T={T}")
    if not T / h < MAX_STEPS + 0.5:
        raise ValueError(f"h={h} makes about {T / h:.3g} steps over T={T}, "
                         f"more than the {MAX_STEPS} a grid may have")
    if not groups:
        return []
    m = input_counts.pop()
    K = max(1, int(round(T / h)))
    h = T / K
    grid = np.linspace(0.0, T, K + 1)
    half_grid = np.linspace(0.0, T, 2 * K + 1)

    # each stage is k = z W_z[g] with z = [x, u_c x[R] for c in coupled, u] and
    # W_z[g] = [A^T; N_c^T[R]; B^T], block-diagonal over the models of group g.
    # R holds the padded columns that some coupled N_c reads (is nonzero in),
    # so the rows of N_c^T left out are exactly zero.  Unevenly spaced ones
    # are gathered: their span would widen the product and move its rounding
    coupled = [i for i in range(m)
               if any(np.any(sys.N[i]) for systems, _, _ in groups for sys in systems)]
    n_max = max(sum(sys.n for sys in systems) for systems, _, _ in groups)
    S_max = max(len(controls) for _, controls, _ in groups)
    G = len(groups)
    drift = np.zeros((G, 1 + len(coupled), n_max, n_max))  # A^T, N_c^T
    Bt = np.zeros((G, m, n_max))
    x = np.zeros((G, S_max, n_max))
    U, states, sinks = [], [], []
    for g, (systems, controls, x0) in enumerate(groups):
        bounds = np.cumsum([0] + [sys.n for sys in systems])
        cols = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        for c, sys in zip(cols, systems):
            drift[g, :, c, c] = [sys.A.T] + [sys.N[i].T for i in coupled]
            Bt[g, :, c] = sys.B.T
        for c, x0_i in zip(cols, x0 if x0 is not None else []):
            x[g, :len(controls), c] = np.asarray(x0_i, dtype=float)
        U.append(np.stack([u(half_grid) for u in controls], axis=1))  # (2K+1, S, m)
        # one array per model holds its runs under every control, so a block
        # of steps goes to them in one copy per model, not one per run
        runs = [np.empty((len(controls), K + 1, sys.n)) for sys in systems]
        for c, run in zip(cols, runs):
            run[:, 0] = x[g, :len(controls), c]
            sinks.append((g, c, run))
        states.append(runs)
    R = np.flatnonzero(drift[:, 1:].any(axis=(0, 1, 3)))
    stride = R[1] - R[0] if R.size > 1 else 1
    if np.all(np.diff(R) == stride):  # evenly spaced: a view, no gather
        R = slice(R[0], R[-1] + 1, stride) if R.size else slice(0)
    Wz = np.concatenate([drift[:, 0], drift[:, 1:, R].reshape(G, -1, n_max), Bt], axis=1)
    _integrate(x, U, Wz, coupled, R, h, grid, sinks)

    results = []
    for (systems, controls, _), Ug, runs in zip(groups, U, states):
        inputs = [np.ascontiguousarray(Ug[::2, s]) for s in range(len(controls))]
        results.append([[Trajectory(grid=grid, states=x_s, inputs=u_s,
                                    outputs=x_s @ sys.C.T, control=u)
                         for x_s, u_s, u in zip(row, inputs, controls)]
                        for sys, row in zip(systems, runs)])
    return results


def _integrate(x, U, Wz, coupled, R, h, grid, sinks):
    """RK4 over the whole grid from the padded state x of shape
    (groups, S_max, n_max), where U[g] holds the inputs of group g on the
    half-step grid.  Each stage is one stacked product with
    z = [x, u_c x[R] for c in coupled, u] that returns the stage's
    increment scaled by its step: d1 = z1 (h/2 W_z), d2 = z2 (h/2 W_z),
    d3 = z3 (h W_z) and d4 = z4 (h/2 W_z), so a stage state is one add,
    x + d, and the step is x + (d1 + 2 d2 + d3 + d4) / 3, one product of
    the four stacked increments with their weights and one add.

    The state of each step is a row of a block of per-step rows of z,
    (steps + 1, groups, S_max, L): the combining add writes the next row's
    x, which the next step's first product reads, and the rows' u are
    copied from the block's inputs before its steps.  Stages 2 to 4 fill
    one (groups, S_max, L) buffer.  A block holds at most BLOCK_STEPS
    steps and BLOCK_BYTES of rows.  For each (g, cols, states) of `sinks`,
    columns cols of row s of group g at step k go to states[s, k].

    A step makes only its 15 array calls: every view it reads (the inputs
    of its half steps, its rows, x[R] where R is a slice) is made once,
    before the loop, and its weights are one array.  Where R is an index
    array, x[R] is a copy, so each stage also gathers it into one buffer.
    One group's products are taken on 2-D views.  The finiteness check
    runs once per block on the whole block: padded rows and columns stay
    exactly 0 while their row's real columns are finite, so a row sum over
    all n_max columns finds each group's first bad step."""
    K = grid.size - 1
    G, S_max, n = x.shape
    m, L = U[0].shape[2], Wz.shape[1]
    block_steps = min(BLOCK_STEPS, K, max(1, BLOCK_BYTES // (8 * G * S_max * L)))
    multiply, add, copyto, combine = np.multiply, np.add, np.copyto, np.dot
    Z = np.zeros((block_steps + 1, G, S_max, L))  # per-step rows of z
    Ub = np.zeros((2 * block_steps + 1, G, S_max, m))
    Uc = np.empty(Ub.shape[:3] + (len(coupled), 1))
    z = np.zeros((G, S_max, L))  # the stage buffer
    D = np.empty((4, G, S_max, n))  # d1, d2, d3, d4
    increment = np.empty(D[0].size)
    weights = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0
    W_half, W_full = (0.5 * h) * Wz, h * Wz
    X, Zu = Z[..., :n], Z[..., L - m:]
    zx, zu = z[..., :n], z[..., L - m:]
    if isinstance(R, slice):
        XR, xR, gather = X[..., None, R], zx[..., None, R], None
    else:  # every row's and the stage's x[R] are gathered into one buffer
        xR = np.empty((G, S_max, 1, R.size))
        XR = np.broadcast_to(xR, (block_steps + 1,) + xR.shape)
        gather = partial(np.take, indices=R, axis=2, out=xR[..., 0, :], mode="clip")
    coupled_shape = (len(coupled), xR.shape[-1])
    Zc = Z[..., n:L - m].reshape(Z.shape[:3] + coupled_shape)
    zc = z[..., n:L - m].reshape(z.shape[:2] + coupled_shape)
    # one group's products on its 2-D views: np.dot makes the BLAS call that
    # np.matmul makes, at less cost per call
    if G == 1:
        product, Zs, zs, Wh, Wf, outs = np.dot, Z[:, 0], z[0], W_half[0], W_full[0], D[:, 0]
    else:
        product, Zs, zs, Wh, Wf, outs = np.matmul, Z, z, W_half, W_full, D
    o1, o2, o3, o4 = outs
    d1, d2, d3, d4 = D
    stacked, increment_x = D.reshape(4, -1), increment.reshape(D.shape[1:])
    # the views of a step: its row of z (for the product, its x, x[R] and
    # coupled part), the next row's x, its coupled inputs at t, t + h/2 and
    # t + h, and its inputs at t + h/2 and t + h
    u_rows, c_rows = list(Ub), list(Uc)
    views = (list(Zs), list(X), list(XR), list(Zc), list(X)[1:],
             c_rows[0::2], c_rows[1::2], c_rows[2::2], u_rows[1::2], u_rows[2::2])
    X[0] = x
    failed = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, K, block_steps):
            last = min(first + block_steps, K)
            steps = last - first
            for g, Ug in enumerate(U):
                Ub[:2 * steps + 1, g, :Ug.shape[1]] = Ug[2 * first:2 * last + 1]
            Uc[..., 0] = Ub[..., coupled]
            Zu[:steps] = Ub[:2 * steps:2]
            for zk, xk, xRk, zck, x_next, c0, c1, c2, u1, u2 in islice(zip(*views), steps):
                if gather:
                    gather(xk)
                multiply(c0, xRk, zck)
                product(zk, Wh, o1)
                add(xk, d1, zx)
                copyto(zu, u1)
                if gather:
                    gather(zx)
                multiply(c1, xR, zc)
                product(zs, Wh, o2)
                add(xk, d2, zx)
                if gather:
                    gather(zx)
                multiply(c1, xR, zc)
                product(zs, Wf, o3)
                add(xk, d3, zx)
                copyto(zu, u2)
                if gather:
                    gather(zx)
                multiply(c2, xR, zc)
                product(zs, Wh, o4)
                combine(weights, stacked, increment)
                add(xk, increment_x, x_next)
            for g, cols, states in sinks:
                block = X[1:steps + 1, g, :len(states), cols]
                states[:, first + 1:last + 1] = block.swapaxes(0, 1)
            bad = ~np.isfinite(X[1:steps + 1].sum(axis=3)).all(axis=2)  # (steps, G)
            for g in np.flatnonzero(bad.any(axis=0)):
                failed.setdefault(int(g), first + 1 + int(np.argmax(bad[:, g])))
            if 0 in failed:  # no later failure comes first in list order
                break
            X[0] = X[steps]
    if failed:
        step = failed[min(failed)]
        raise SimulationBlowUpError(
            f"state became non-finite at step {step} (t = {grid[step]:.6g})",
            step=step, time=float(grid[step]))


@lru_cache(maxsize=16)
def stride2_points(K):
    """The points of the 2h rule on a grid of K steps: every second point,
    and the last one when K is odd (whose last interval is then of step h).

    A campaign asks for the same few K over and over, so the array is built
    once per K and shared: it is read-only."""
    points = np.union1d(np.arange(0, K + 1, 2), [K])
    points.setflags(write=False)
    return points


def trapezoid_pair(f, grid):
    """(I_h, I_2h): the trapezoidal integral of f on the grid, and on its
    `stride2_points`.  The difference over 3 estimates the quadrature error
    of I_h."""
    coarse = stride2_points(f.size - 1)
    return float(np.trapezoid(f, grid)), float(np.trapezoid(f[coarse], grid[coarse]))


def l2_richardson(values, grid):
    """(norm at step h, norm at step 2h) for the trapezoidal L^2 norm; the
    difference over 3 estimates the quadrature error of the h result."""
    fine, coarse = trapezoid_pair((np.atleast_2d(values.T).T ** 2).sum(axis=1), grid)
    return float(np.sqrt(fine)), float(np.sqrt(max(coarse, 0.0)))


def quadrature_slack(*pairs, floor=0.0):
    """Slack tolerance for one bound check: sum of Richardson estimates
    |I_h - I_2h| / 3 over the quadratures entering the check, plus a floor
    covering integrator and rounding noise at the problem's scale."""
    eps = sum(abs(a - b) / 3.0 for a, b in pairs)
    return float(eps + floor)
