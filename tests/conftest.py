"""Helpers shared by the test modules."""

import numpy as np
import pytest
import scipy.sparse as sp


class ZeroTerm:
    """Vanishing nonlinearity; turns the semilinear solvers into linear ones."""

    def __call__(self, u):
        return np.zeros_like(u)

    def jacobian(self, u):
        return sp.csr_matrix((u.shape[0], u.shape[0]))


@pytest.fixture
def zero_term():
    return ZeroTerm()
