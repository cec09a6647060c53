"""The generalized Lyapunov operator

    X -> M X + X M^T + sum_i N_i X N_i^T

shared by the stability checks and the dense solvers, on the symmetric
matrices it maps to symmetric matrices.

It works in symmetric coordinates: on the orthonormal basis E_aa and
(e_a e_b^T + e_b e_a^T)/sqrt(2), a < b, of the symmetric matrices, with
n(n+1)/2 unknowns instead of the n^2 of the Kronecker form
I kron M + M kron I + sum_i N_i kron N_i; no n^2 x n^2 array is formed.
`lyapunov_matrix` gives the operator's matrix on that basis and is the one
place that forms it, so it alone enforces the size cap `MAX_KRON_N`;
`half_vec` and `half_unvec` map between a symmetric matrix and its
coordinates.

The restriction is exact for the solves, whose right-hand sides and
solutions are symmetric, and for the spectral abscissa: the operator above
is resolvent-positive (Damm, *Rational Matrix Equations in Stochastic
Control*, LNCIS 297, 2004), so its abscissa is a real eigenvalue with a
positive semidefinite, hence symmetric, eigenvector.
"""

from functools import cache
from typing import NamedTuple

import numpy as np

# entries of one temporary in `lyapunov_matrix`: bounds its work memory at
# 128 KB per array whatever n
CHUNK_ENTRIES = 1 << 14

# largest n for which the dense operators on the n(n+1)/2 symmetric
# coordinates are formed, factored and eigensolved; the whole pipeline
# shares this one cap
MAX_KRON_N = 60


class KroneckerCapError(RuntimeError):
    """State dimension too large for the dense symmetric-coordinate path."""


def symmetrize(X):
    return 0.5 * (X + X.T)


class SymBasis(NamedTuple):
    """Index data of the orthonormal basis of symmetric n x n matrices.

    Basis element q is E_aa if a = b and (E_ab + E_ba)/sqrt(2) otherwise,
    with (a, b) = (rows[q], cols[q]) from `np.triu_indices(n)`; `weights[q]`
    is 1 or sqrt(2).  The `eye_*` arrays list the nonzero entries of the
    matrix of X -> F X + X F^T: the distinct flat positions in the operator,
    the position each term adds to (an index into `eye_pos`), the flat index
    of the entry of F the term takes, and its weight.  No array holds n^4
    entries.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    eye_pos: np.ndarray
    eye_bin: np.ndarray
    eye_src: np.ndarray
    eye_scale: np.ndarray


@cache
def sym_basis(n):
    """The `SymBasis` of the symmetric n x n matrices (n(n+1)/2 elements).

    Built once per n and shared by every caller, so its arrays are
    read-only.  Only `lyapunov_matrix` asks for a new n, after checking it
    against MAX_KRON_N, which bounds the cache."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    m = rows.size
    # with p = (a, b) and q = (c, d), entry (p, q) of the matrix of
    # X -> F X + X F^T is w_p w_q / 2 times the sum of F_ac [b = d],
    # F_bd [a = c], F_ad [b = c] and F_bc [a = d]
    pos, src = [], []
    for f_row, f_col, h_row, h_col in ((rows, rows, cols, cols),
                                       (cols, cols, rows, rows),
                                       (rows, cols, cols, rows),
                                       (cols, rows, rows, cols)):
        p, q = np.nonzero(h_row[:, None] == h_col[None, :])
        pos.append(p * m + q)
        src.append(f_row[p] * n + f_col[q])
    pos = np.concatenate(pos)
    eye_pos, eye_bin = np.unique(pos, return_inverse=True)
    basis = SymBasis(n=n, rows=rows, cols=cols, weights=weights,
                     eye_pos=eye_pos, eye_bin=eye_bin,
                     eye_src=np.concatenate(src),
                     eye_scale=0.5 * weights[pos // m] * weights[pos % m])
    for array in basis[1:]:
        array.setflags(write=False)
    return basis


def lyapunov_matrix(M, N_list):
    """Matrix of X -> M X + X M^T + sum_i N_i X N_i^T on the symmetric basis
    of M's size; KroneckerCapError if that size is above MAX_KRON_N.

    With p = (a, b) and q = (c, d), the coupling N_i adds w_p w_q / 4 times
    2 (N_ac N_bd + N_ad N_bc), gathered a few rows p at a time, so the
    temporaries hold O(n^3) entries, not the operator's n^4 / 4.  For finite
    N_i the row is +-0 unless rows a and b of N_i are both nonzero: only
    those rows are formed (one of the d rows for a heat rod's single-entry
    N_i).  Adding +-0 would change no entry but a -0, and sums into np.zeros
    hold none, so the result is that of forming every row.  The O(n^3)
    nonzero entries of the M terms (`eye_terms`) are added last.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n > MAX_KRON_N:
        raise KroneckerCapError(
            f"state dimension n={n} exceeds the dense Kronecker cap {MAX_KRON_N}")
    basis = sym_basis(n)
    rows, cols, w = basis.rows, basis.cols, basis.weights
    m = rows.size
    L = np.zeros((m, m))
    step = max(1, CHUNK_ENTRIES // m)
    for Ni in N_list:
        Ni = np.asarray(Ni, dtype=float)
        NR, NC, nonzero = Ni[:, rows], Ni[:, cols], Ni.any(axis=1)
        live = np.flatnonzero(nonzero[rows] & nonzero[cols])
        for start in range(0, live.size, step):
            p = live[start:start + step]
            a, b = rows[p], cols[p]
            # ((x + x) + y) + y, the rounding order of the four products
            # N_ac N_bd, N_bd N_ac, N_ad N_bc and N_bc N_ad summed in turn
            G = NR[a] * NC[b]
            y = NC[a] * NR[b]
            G += G
            G += y
            G += y
            G *= 0.5 * w[p, None]
            G *= w[None, :]
            L[p] += G
    L *= 0.5
    L.reshape(-1)[basis.eye_pos] += eye_terms(M, basis)
    return L


def eye_terms(F, basis):
    """The nonzero entries of the matrix of X -> F X + X F^T, at the flat
    positions `basis.eye_pos`."""
    terms = np.asarray(F, dtype=float).ravel()[basis.eye_src] * basis.eye_scale
    return np.bincount(basis.eye_bin, weights=terms, minlength=basis.eye_pos.size)


def half_vec(X, basis):
    """Coordinates of the symmetric matrix X on `basis`."""
    return basis.weights * np.asarray(X)[basis.rows, basis.cols]


def half_unvec(y, basis):
    """The symmetric matrix with coordinates y on `basis`."""
    X = np.empty((basis.n, basis.n))
    v = y / basis.weights
    X[basis.rows, basis.cols] = v
    X[basis.cols, basis.rows] = v
    return X


def spectral_abscissa(M):
    """Largest real part of the eigenvalues of M."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=float)).real))


def ms_abscissa(M, N_list):
    """Mean-square spectral abscissa: largest real part of the spectrum of
    X -> M X + X M^T + sum_i N_i X N_i^T on the symmetric coordinates.  The
    operator is resolvent-positive, so the abscissa has a symmetric (PSD)
    eigenvector and equals that of I kron M + M kron I + sum_i N_i kron N_i.

    Negative iff the pair (M, (N_i)) is mean-square stable, which is the
    existence condition for the Gramians solved downstream.  With M and every
    N_i exactly symmetric (diffusion) the operator is self-adjoint, so its
    matrix on the orthonormal basis is symmetric: a symmetric eigensolve.
    """
    M = np.asarray(M, dtype=float)
    L = lyapunov_matrix(M, N_list)
    if all(np.array_equal(F, F.T) for F in [M, *map(np.asarray, N_list)]):
        return float(np.linalg.eigvalsh(L)[-1])
    return spectral_abscissa(L)
