"""Operators on symmetric matrices shared by the stability checks and the
dense solvers, which only ever handle operators that map symmetric matrices
to symmetric matrices, such as

    X -> M X + X M^T + sum_i N_i X N_i^T.

They work in symmetric coordinates: on the orthonormal basis E_aa and
(e_a e_b^T + e_b e_a^T)/sqrt(2), a < b, of the symmetric matrices, with
n(n+1)/2 unknowns instead of the n^2 of the Kronecker form
I kron M + M kron I + sum_i N_i kron N_i; no n^2 x n^2 array is formed.
`sym_operator` gives the matrix of X -> F X H^T + H X F^T on that basis, so
the operator above is sym(M, I) + (1/2) sum_i sym(N_i, N_i), the second
term being `coupling_operator`; `half_vec` and `half_unvec` map between a
symmetric matrix and its coordinates.

The restriction is exact for the solves, whose right-hand sides and
solutions are symmetric, and for the spectral abscissa: the operator above
is resolvent-positive (Damm, *Rational Matrix Equations in Stochastic
Control*, LNCIS 297, 2004), so its abscissa is a real eigenvalue with a
positive semidefinite, hence symmetric, eigenvector.
"""

from functools import cache
from typing import NamedTuple

import numpy as np

# entries of one temporary in `sym_operator`: bounds its work memory at
# 128 KB per array whatever n
CHUNK_ENTRIES = 1 << 14

# largest n for which the dense operators on the n(n+1)/2 symmetric
# coordinates are formed, factored and eigensolved; the whole pipeline
# shares this one cap
MAX_KRON_N = 60


class KroneckerCapError(RuntimeError):
    """State dimension too large for the dense symmetric-coordinate path."""


def check_kron_dim(n):
    if n > MAX_KRON_N:
        raise KroneckerCapError(
            f"state dimension n={n} exceeds the dense Kronecker cap {MAX_KRON_N}"
        )


def symmetrize(X):
    return 0.5 * (X + X.T)


class SymBasis(NamedTuple):
    """Index data of the orthonormal basis of symmetric n x n matrices.

    Basis element q is E_aa if a = b and (E_ab + E_ba)/sqrt(2) otherwise,
    with (a, b) = (rows[q], cols[q]) from `np.triu_indices(n)`; `weights[q]`
    is 1 or sqrt(2).  The `eye_*` arrays list the nonzero entries of
    sym(F, I): the distinct flat positions in the operator, the position each
    term adds to (an index into `eye_pos`), the flat index of the entry of F
    the term takes, and its weight.  No array holds n^4 entries.
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
    read-only; the callers check n against MAX_KRON_N first, which bounds
    the cache."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    m = rows.size
    # sym(F, I) keeps the terms of sym(F, H) whose entry of H is diagonal:
    # with p = (a, b) and q = (c, d) these are F_ac [b = d], F_bd [a = c],
    # F_ad [b = c] and F_bc [a = d]
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


def sym_operator(F, H, basis, out=None):
    """Matrix of X -> F X H^T + H X F^T on the symmetric basis `basis`;
    H = None stands for the identity.  With `out` (a C-ordered square
    array of the operator's size) the matrix is added to it in place and
    `out` is returned.

    With p = (a, b) and q = (c, d), the entry is w_p w_q / 2 times
    F_ac H_bd + F_bd H_ac + F_ad H_bc + F_bc H_ad, gathered a few rows p at
    a time, so the temporaries hold O(n^3) entries, not the operator's
    n^4 / 4.  For H = I only O(n^3) of the entries are nonzero.

    Every term of row p takes one factor from row a of F and one from row b
    of H, or the other way round, so for finite F and H the row is +-0
    unless F_a and H_b, or F_b and H_a, are nonzero rows: only those rows
    are formed (one of the d rows for a heat rod's single-entry N_i in
    sym(N_i, N_i)).  Adding +-0 would change no entry but a -0, and sums
    into np.zeros hold none, so the result is that of forming every row.
    """
    F = np.asarray(F, dtype=float)
    m = basis.rows.size
    if out is None:
        out = np.zeros((m, m))
    if H is None:
        out.reshape(-1)[basis.eye_pos] += eye_terms(F, basis)
        return out
    H = np.asarray(H, dtype=float)
    rows, cols, w = basis.rows, basis.cols, basis.weights
    FR, FC, HR, HC = F[:, rows], F[:, cols], H[:, rows], H[:, cols]
    f, h = F.any(axis=1), H.any(axis=1)
    live = np.flatnonzero(f[rows] & h[cols] | f[cols] & h[rows])
    step = max(1, CHUNK_ENTRIES // m)
    for start in range(0, live.size, step):
        p = live[start:start + step]
        a, b = rows[p], cols[p]
        G = FR[a] * HC[b]
        G += FC[b] * HR[a]
        G += FC[a] * HR[b]
        G += FR[b] * HC[a]
        G *= 0.5 * w[p, None]
        G *= w[None, :]
        out[p] += G
    return out


def eye_terms(F, basis):
    """The nonzero entries of sym(F, I), at the flat positions `basis.eye_pos`."""
    terms = np.asarray(F, dtype=float).ravel()[basis.eye_src] * basis.eye_scale
    return np.bincount(basis.eye_bin, weights=terms, minlength=basis.eye_pos.size)


def coupling_operator(N_list, basis):
    """Matrix of X -> sum_i N_i X N_i^T in symmetric coordinates, that is
    (1/2) sum_i sym(N_i, N_i)."""
    C = np.zeros((basis.rows.size, basis.rows.size))
    for Ni in N_list:
        sym_operator(Ni, Ni, basis, out=C)
    C *= 0.5
    return C


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
    check_kron_dim(M.shape[0])
    basis = sym_basis(M.shape[0])
    L = sym_operator(M, None, basis, out=coupling_operator(N_list, basis))
    if all(np.array_equal(F, F.T) for F in [M, *map(np.asarray, N_list)]):
        return float(np.linalg.eigvalsh(L)[-1])
    return spectral_abscissa(L)
