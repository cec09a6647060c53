"""Kronecker-product operators shared by the stability checks and the dense solvers.

All vectorisations are column-major (``order="F"``), so that
``vec(M X) = (I kron M) vec(X)`` and ``vec(X M^T) = (M kron I) vec(X)``.

The mean-square abscissa is an eigenvalue of the full n^2 x n^2 operator
(`reach_operator`).  The dense solvers only ever solve for symmetric X under
operators that map symmetric matrices to symmetric matrices, such as

    X -> M X + X M^T + sum_i N_i X N_i^T.

They work in symmetric coordinates: on the orthonormal basis E_aa and
(e_a e_b^T + e_b e_a^T)/sqrt(2), a < b, of the symmetric matrices, with
n(n+1)/2 unknowns instead of n^2.  `sym_operator` gives the matrix of
X -> F X H^T + H X F^T on that basis, so the operator above is
sym(M, I) + (1/2) sum_i sym(N_i, N_i); `half_vec` and `half_unvec` map
between a symmetric matrix and its coordinates.
"""

from typing import NamedTuple

import numpy as np

# largest n for which the dense n^2 x n^2 spectra are formed; the whole
# pipeline shares this one cap
MAX_KRON_N = 60


class KroneckerCapError(RuntimeError):
    """State dimension too large for the dense n^2 x n^2 path."""


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
    is 1 or sqrt(2).  `aa`, `bb`, `ab` and `ba` are flat indices into an
    n x n matrix Z such that Z.ravel()[ab][p, q] = Z[a_p, b_q], and so on.
    The `eye_*` arrays list the nonzero entries of sym(F, I): flat positions
    in the operator, the flat index of the entry of F each one takes, and its
    weight.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    aa: np.ndarray
    bb: np.ndarray
    ab: np.ndarray
    ba: np.ndarray
    eye_pos: np.ndarray
    eye_src: np.ndarray
    eye_scale: np.ndarray


def sym_basis(n):
    """The `SymBasis` of the symmetric n x n matrices (n(n+1)/2 elements)."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    aa = rows[:, None] * n + rows[None, :]
    bb = cols[:, None] * n + cols[None, :]
    ab = rows[:, None] * n + cols[None, :]
    ba = cols[:, None] * n + rows[None, :]
    # sym(F, I) keeps the terms of sym(F, H) whose entry of H is diagonal
    pos, src = [], []
    for f_idx, h_row, h_col in ((aa, cols, cols), (bb, rows, rows),
                                (ab, cols, rows), (ba, rows, cols)):
        nz = np.flatnonzero(h_row[:, None] == h_col[None, :])
        pos.append(nz)
        src.append(f_idx.ravel()[nz])
    eye_pos = np.concatenate(pos)
    m = rows.size
    eye_scale = 0.5 * weights[eye_pos // m] * weights[eye_pos % m]
    return SymBasis(n=n, rows=rows, cols=cols, weights=weights,
                    aa=aa, bb=bb, ab=ab, ba=ba, eye_pos=eye_pos,
                    eye_src=np.concatenate(src), eye_scale=eye_scale)


def sym_operator(F, H, basis):
    """Matrix of X -> F X H^T + H X F^T on the symmetric basis `basis`;
    H = None stands for the identity.

    With p = (a, b) and q = (c, d), the entry is w_p w_q / 2 times
    F_ac H_bd + F_bd H_ac + F_ad H_bc + F_bc H_ad, gathered without forming
    any n^2 x n^2 array.  For H = I only O(n^3) of these entries are nonzero.
    """
    f = np.ascontiguousarray(F, dtype=float).ravel()
    m = basis.rows.size
    if H is None:
        G = np.bincount(basis.eye_pos, weights=f[basis.eye_src] * basis.eye_scale,
                        minlength=m * m)
        return G.reshape(m, m)
    h = np.ascontiguousarray(H, dtype=float).ravel()
    G = f[basis.aa] * h[basis.bb]
    G += f[basis.bb] * h[basis.aa]
    G += f[basis.ab] * h[basis.ba]
    G += f[basis.ba] * h[basis.ab]
    w = basis.weights
    G *= 0.5 * w[:, None]
    G *= w[None, :]
    return G


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


def reach_operator(M, N_list):
    """Matrix of X -> M X + X M^T + sum_i N_i X N_i^T on vec(X)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    eye = np.eye(n)
    K = np.kron(eye, M) + np.kron(M, eye)
    for Ni in N_list:
        Ni = np.asarray(Ni, dtype=float)
        K += np.kron(Ni, Ni)
    return K


def spectral_abscissa(M):
    """Largest real part of the eigenvalues of M."""
    return float(np.max(np.linalg.eigvals(np.asarray(M, dtype=float)).real))


def ms_abscissa(M, N_list):
    """Mean-square spectral abscissa: largest real eigenvalue part of
    I kron M + M kron I + sum_i N_i kron N_i.

    Negative iff the pair (M, (N_i)) is mean-square stable, which is the
    existence condition for the Gramians solved downstream.
    """
    check_kron_dim(np.asarray(M).shape[0])
    return spectral_abscissa(reach_operator(M, N_list))
