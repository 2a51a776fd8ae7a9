"""Multiscale diffusion coefficient and the flux-form 5-point assembly."""

import numpy as np
import pytest

from optbasis.elliptic import EllipticMedium, assemble_elliptic, eval_source_elliptic, kappa
from optbasis.grids import Grid2D
from optbasis.linalg import factorize


class ConstantMedium:
    """Stand-in medium with a constant coefficient, for closed-form Laplacian checks."""

    def __init__(self, value):
        self.value = value

    def coefficient(self, x1, x2):
        return np.full(np.broadcast(np.asarray(x1), np.asarray(x2)).shape, self.value)


class TestKappa:
    def test_value_at_quarter_point(self):
        # sin(pi/2) = 1, cos(pi/2) = 0 collapse the three ratios to
        # 0 + 3.8/2 + 3/2, giving exactly 5.4 at eps = 1
        assert float(kappa(0.25, 0.25, 1.0)) == pytest.approx(5.4, abs=1e-14)

    def test_value_at_origin(self):
        assert float(kappa(0.0, 0.0, 1.0)) == pytest.approx(2.0 + 4.0 / 3.8, abs=1e-14)

    @pytest.mark.parametrize("eps", [1.0, 0.25, 0.0625])
    def test_stays_strictly_positive(self, eps):
        x = np.linspace(0.0, 0.5, 301)
        x1, x2 = np.meshgrid(x, x)
        assert kappa(x1, x2, eps).min() > 1.0

    def test_oscillation_grows_as_eps_shrinks(self):
        x = np.linspace(0.0, 0.5, 2001)
        x1, x2 = np.meshgrid(x, x)
        spread_coarse = np.ptp(kappa(x1, x2, 1.0))
        spread_fine = np.ptp(kappa(x1, x2, 0.0625))
        assert spread_fine > spread_coarse


class TestAssembly:
    def test_matrix_is_exactly_symmetric(self):
        a = assemble_elliptic(Grid2D(16), EllipticMedium(0.25))
        assert abs(a - a.T).max() == 0.0

    def test_constant_coefficient_recovers_laplacian_spectrum(self):
        # for kappa = 1 the stencil is the standard 5-point Laplacian whose
        # eigenvalues are (4/h^2)(sin^2(pi k / 2m) + sin^2(pi l / 2m))
        grid = Grid2D(4)
        a = assemble_elliptic(grid, ConstantMedium(1.0))
        eigs = np.sort(np.linalg.eigvalsh(a.toarray()))
        s = np.sin(np.pi * np.arange(1, 4) / 8.0) ** 2
        predicted = np.sort((4.0 / grid.h**2) * (s[:, None] + s[None, :]).ravel())
        np.testing.assert_allclose(eigs, predicted, rtol=1e-12)

    def test_positive_definite_for_multiscale_coefficient(self):
        a = assemble_elliptic(Grid2D(8), EllipticMedium(0.0625))
        eigs = np.linalg.eigvalsh(a.toarray())
        assert eigs.min() > 0

    def test_off_diagonal_entries_are_nonpositive(self):
        a = assemble_elliptic(Grid2D(8), EllipticMedium(0.25)).tocoo()
        off = a.data[a.row != a.col]
        assert off.max() < 0

    def test_interior_row_sums_vanish(self):
        # rows of nodes with four interior neighbors sum to zero; boundary
        # rows keep the Dirichlet contribution and stay positive
        grid = Grid2D(6)
        a = assemble_elliptic(grid, EllipticMedium(1.0))
        sums = np.asarray(a.sum(axis=1)).ravel()
        n = grid.n_per_dim
        inner = np.arange(grid.n_interior).reshape(n, n)[1:-1, 1:-1].ravel()
        np.testing.assert_allclose(sums[inner], 0.0, atol=1e-9)
        boundary = np.setdiff1d(np.arange(grid.n_interior), inner)
        assert sums[boundary].min() > 0

    def test_inverse_positivity(self):
        # M-matrix structure: positive sources produce positive solutions
        a = assemble_elliptic(Grid2D(16), EllipticMedium(0.25))
        solver = factorize(a)
        rng = np.random.Generator(np.random.Philox(1))
        u = solver.solve(rng.uniform(0.5, 1.0, size=a.shape[0]))
        assert u.min() > 0

    def test_second_order_convergence_against_manufactured_solution(self):
        # u* = sin(4 pi x1) sin(4 pi x2) solves -lap u = 32 pi^2 u* and
        # vanishes on the boundary of (0, 0.5)^2
        errors = []
        for m in (8, 16, 32):
            grid = Grid2D(m)
            x1, x2 = grid.interior_flat()
            ustar = np.sin(4 * np.pi * x1) * np.sin(4 * np.pi * x2)
            op = assemble_elliptic(grid, ConstantMedium(1.0))
            u = factorize(op).solve(32 * np.pi**2 * ustar)
            errors.append(np.abs(u - ustar).max())
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios > 3.5) and np.all(ratios < 4.5)


class TestSource:
    def test_separable_sine_values(self):
        grid = Grid2D(4)
        src = eval_source_elliptic(grid, 2.0)
        # first interior node is (h, h) = (0.125, 0.125) where both sine
        # factors hit their peak
        assert src[0] == pytest.approx(2.0, abs=1e-14)
        x1, x2 = grid.interior_flat()
        np.testing.assert_allclose(
            src, 2.0 * np.sin(4 * np.pi * x1) * np.sin(4 * np.pi * x2), atol=1e-15
        )

    def test_amplitude_scales_linearly(self):
        grid = Grid2D(6)
        np.testing.assert_allclose(
            eval_source_elliptic(grid, 100.0), 100.0 * eval_source_elliptic(grid), atol=1e-12
        )
