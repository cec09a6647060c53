import numpy as np
import pytest

from bilbt import BilinearSystem
from bilbt.verification import random_ms_stable_system, worked_2x2


@pytest.fixture
def scalar_sys():
    """a = -1, n1 = 0.5, b = c = 1: closed forms are known for every Gramian."""
    return BilinearSystem.from_matrices([[-1.0]], [[1.0]], [[[0.5]]], [[1.0]])


@pytest.fixture
def worked_sys():
    return worked_2x2()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def make_random_system(seed, n=4, m=1, p=1):
    return random_ms_stable_system(n, m, p, np.random.default_rng(seed))


def reach_operator(M, N_list):
    """Dense oracle: the matrix of X -> M X + X M^T + sum_i N_i X N_i^T on
    the column-major vec(X), I kron M + M kron I + sum_i N_i kron N_i."""
    M = np.asarray(M, dtype=float)
    eye = np.eye(M.shape[0])
    K = np.kron(eye, M) + np.kron(M, eye)
    for Ni in N_list:
        K += np.kron(np.asarray(Ni, dtype=float), Ni)
    return K
