"""The symmetric-coordinate operators against the dense n^2 x n^2 oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bilbt import LyapunovOperator
from bilbt.kronecker import (
    MAX_KRON_N,
    KroneckerCapError,
    eye_terms,
    half_unvec,
    half_vec,
    lyapunov_matrix,
    ms_abscissa,
    spectral_abscissa,
    sym_basis,
    symmetrize,
)

from conftest import heat_rod, reach_operator

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def operator_data(draw):
    """(M, [N_i], side, rng) with n in 1..8 and m in 0..3 coupling matrices."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    side = draw(st.sampled_from(("reachability", "observability")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((n, n))
    N = [rng.standard_normal((n, n)) for _ in range(m)]
    return M, N, side, rng


def basis_matrix(n):
    """D: column q is vec of E_aa or (E_ab + E_ba)/sqrt(2), (a, b) in triu order."""
    rows, cols = np.triu_indices(n)
    D = np.zeros((n * n, rows.size))
    for q, (a, b) in enumerate(zip(rows, cols)):
        E = np.zeros((n, n))
        E[a, b] = E[b, a] = 1.0 if a == b else np.sqrt(0.5)
        D[:, q] = E.reshape(-1, order="F")
    return D


def dense_operator(M, N, side):
    K = reach_operator(M, N)
    return K.T if side == "observability" else K


def symmetric_operator(M, N, side):
    if side == "observability":
        M, N = M.T, [Ni.T for Ni in N]
    return lyapunov_matrix(M, N)


@st.composite
def scaled_pairs(draw):
    """(M, [N_i]) with n in 1..8, m in 0..3 and entries scaled by 0.01..10;
    mean-square stable and unstable pairs alike."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    scale_m, scale_n = (draw(st.floats(0.01, 10.0)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = scale_m * rng.standard_normal((n, n)) - draw(st.floats(0.0, 10.0)) * np.eye(n)
    return M, [scale_n * rng.standard_normal((n, n)) for _ in range(m)]


@st.composite
def symmetric_pairs(draw):
    """`scaled_pairs` with M and every N_i made exactly symmetric, as a
    diffusion's are."""
    M, N = draw(scaled_pairs())
    return symmetrize(M), [symmetrize(Ni) for Ni in N]


@PROPERTY
@given(operator_data())
def test_symmetric_operator_is_the_restricted_kronecker_operator(data):
    M, N, side, _ = data
    n = M.shape[0]
    D = basis_matrix(n)
    assert np.allclose(D.T @ D, np.eye(D.shape[1]), rtol=0.0, atol=1e-15)
    oracle = D.T @ dense_operator(M, N, side) @ D
    S = symmetric_operator(M, N, side)
    assert np.linalg.norm(S - oracle) <= 1e-13 * np.linalg.norm(oracle)
    # the two sides are adjoint, so on the orthonormal basis the matrices
    # are transposes: `LyapunovOperator` factors one for both
    other = symmetric_operator(M, N, "reachability" if side == "observability"
                               else "observability")
    assert np.linalg.norm(S - other.T) <= 1e-13 * np.linalg.norm(oracle)


@PROPERTY
@given(operator_data())
def test_identity_shortcut_and_coordinates(data):
    M, N, side, rng = data
    n = M.shape[0]
    basis = sym_basis(n)
    # coordinates are orthonormal, and the operator, its M terms taken by
    # the identity shortcut `eye_terms`, acts on them as it acts on X
    X = rng.standard_normal((n, n))
    X += X.T
    y = half_vec(X, basis)
    assert np.array_equal(half_unvec(y, basis), half_unvec(y, basis).T)
    assert np.allclose(half_unvec(y, basis), X, rtol=1e-15, atol=0.0)
    assert abs(y @ y - np.sum(X * X)) <= 1e-13 * np.sum(X * X)
    if side == "observability":
        M, N = M.T, [Ni.T for Ni in N]
    image = M @ X + X @ M.T + sum(Ni @ X @ Ni.T for Ni in N)
    error = np.linalg.norm(lyapunov_matrix(M, N) @ y - half_vec(image, basis))
    scale = 2 * np.linalg.norm(M) + sum(np.linalg.norm(Ni) ** 2 for Ni in N)
    assert error <= 1e-13 * n * scale * np.linalg.norm(X)


@PROPERTY
@given(operator_data())
def test_symmetric_solve_matches_dense_solve(data):
    # one operator, factored once, solves both sides
    M, N, _, rng = data
    n = M.shape[0]
    # shift M so the operator is well conditioned: -2c (I - E) with |E| <= 1/2
    c = 2.0 * np.linalg.norm(M, 2) + sum(np.linalg.norm(Ni, 2) ** 2 for Ni in N) + 1.0
    M = M - c * np.eye(n)
    operator = LyapunovOperator(M, N)
    for side in ("reachability", "observability"):
        R = rng.standard_normal((n, n))
        R += R.T
        X, diag = operator.solve(R, side)
        dense = np.linalg.solve(dense_operator(M, N, side),
                                R.reshape(-1, order="F")).reshape((n, n), order="F")
        assert diag.method == "kronecker_direct"
        assert np.array_equal(X, X.T)
        assert np.linalg.norm(X - dense) <= 1e-12 * np.linalg.norm(dense)


def _couplings(case):
    """[N_i] of one shape of coupling: a heat rod's single-entry N_i, dense,
    one off-diagonal entry, or all zero."""
    if case.startswith("heat-"):
        return heat_rod(int(case[5:])).N
    rng = np.random.default_rng(41)
    if case == "dense":
        return [rng.standard_normal((7, 7)) for _ in range(2)]
    N = np.zeros((7, 7))
    if case == "off-diagonal":
        N[2, 5] = rng.standard_normal()
    return [N]


def _every_row(F, H, basis, out):
    """The matrix of X -> F X H^T + H X F^T, every row at once: with
    p = (a, b) and q = (c, d), w_p w_q / 2 times
    F_ac H_bd + F_bd H_ac + F_ad H_bc + F_bc H_ad, summed in this order."""
    rows, cols, w = basis.rows, basis.cols, basis.weights
    FR, FC, HR, HC = F[:, rows], F[:, cols], H[:, rows], H[:, cols]
    G = FR[rows] * HC[cols]
    G += FC[cols] * HR[rows]
    G += FC[rows] * HR[cols]
    G += FR[cols] * HC[rows]
    G *= 0.5 * w[:, None]
    G *= w[None, :]
    out += G
    return out


@pytest.mark.parametrize("case", ["heat-12", "heat-20", "dense", "off-diagonal", "zero"])
def test_sym_operator_forms_only_the_nonzero_rows(case):
    # the rows of the coupling term whose (a, b) meets a zero row of N_i are
    # zero, so forming only the others gives the every-row build bit for
    # bit, sign bits included, on both sides of the operator: half the sum
    # of the every-row matrices of (N_i, N_i), with the drift's terms last
    rng = np.random.default_rng(43)
    for transpose in (False, True):
        N = [Ni.T if transpose else Ni for Ni in _couplings(case)]
        M = rng.standard_normal(N[0].shape)
        basis = sym_basis(M.shape[0])
        reference = np.zeros((basis.rows.size, basis.rows.size))
        for Ni in N:
            _every_row(Ni, Ni, basis, reference)
        reference *= 0.5
        reference.reshape(-1)[basis.eye_pos] += eye_terms(M, basis)
        L = lyapunov_matrix(M, N)
        assert np.array_equal(L, reference)
        assert np.array_equal(np.signbit(L), np.signbit(reference))


@PROPERTY
@given(scaled_pairs())
def test_ms_abscissa_matches_full_spectrum(pair):
    # the restriction to symmetric coordinates keeps the abscissa: the
    # operator is resolvent-positive, so its abscissa has a PSD eigenvector
    M, N = pair
    spectrum = np.linalg.eigvals(reach_operator(M, N))
    rho = float(np.abs(spectrum).max())
    assert abs(ms_abscissa(M, N) - spectrum.real.max()) <= 1e-12 * max(1.0, rho)


@PROPERTY
@given(symmetric_pairs())
def test_ms_abscissa_of_self_adjoint_pairs_matches_full_spectrum(pair):
    # symmetric M and N_i make the operator self-adjoint, so its matrix on
    # the orthonormal basis is symmetric, exactly as computed, and a
    # symmetric eigensolve gives its abscissa
    M, N = pair
    L = lyapunov_matrix(M, N)
    assert np.array_equal(L, L.T)
    spectrum = np.linalg.eigvals(reach_operator(M, N))
    rho = float(np.abs(spectrum).max())
    assert abs(ms_abscissa(M, N) - spectrum.real.max()) <= 1e-12 * max(1.0, rho)


@PROPERTY
@given(scaled_pairs())
def test_ms_abscissa_of_other_pairs_is_the_general_eigensolve(pair):
    M, N = pair
    assume(M.shape[0] > 1)
    L = lyapunov_matrix(M, N)
    assert ms_abscissa(M, N) == spectral_abscissa(L)


def test_rejected_size_builds_no_basis():
    # the cap is checked before the basis is built, so no n above it enters
    # the basis cache
    n = MAX_KRON_N + 1
    before = sym_basis.cache_info().currsize
    with pytest.raises(KroneckerCapError):
        lyapunov_matrix(-np.eye(n), [np.eye(n)])
    assert sym_basis.cache_info().currsize == before


def test_ms_abscissa_memory_stays_below_half_a_dense_operator():
    n = 40
    rng = np.random.default_rng(40)
    M = rng.standard_normal((n, n)) - 10.0 * np.eye(n)
    N = [0.3 * rng.standard_normal((n, n)) for _ in range(2)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ms_abscissa(M, N)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # one dense n^2 x n^2 operator takes 8 n^4 bytes
    assert peak < 4 * n ** 4
