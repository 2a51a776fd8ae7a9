"""Scattering kernel, multiscale cross sections and the upwind transport assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from optbasis.elliptic import kappa
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.linalg import factorize
from optbasis.transport import (
    RteCoefficients,
    _upwind_1d,
    assemble_rte,
    assemble_rte_from_fields,
    eval_source_rte,
    hg_kernel_matrix,
    hg_phase,
    sigma_a,
    sigma_b,
    sigma_s,
)


class TestPhaseFunction:
    def test_forward_peak_value(self):
        # mu = 1, g = 0.5: (1 - 0.25) / (1 + 0.25 - 1)^{3/2} = 0.75 / 0.125
        assert float(hg_phase(1.0, 0.5)) == pytest.approx(6.0, abs=1e-14)

    def test_backward_value(self):
        # mu = -1: denominator (1 + 0.25 + 1)^{3/2} = 3.375
        assert float(hg_phase(-1.0, 0.5)) == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_isotropic_limit(self):
        mu = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_array_equal(hg_phase(mu, 0.0), np.ones(11))

    def test_forward_dominates_backward_for_positive_g(self):
        assert hg_phase(1.0, 0.3) > hg_phase(-1.0, 0.3)


class TestKernelMatrix:
    def test_rows_average_to_one(self):
        k = hg_kernel_matrix(0.5, 8)
        np.testing.assert_allclose(k.sum(axis=1) / 8, 1.0, atol=1e-13)

    def test_symmetric_and_circulant(self):
        # every entry comes from one row indexed by the lag min(d, n - d) and
        # one normalizing scalar, so symmetry and the circulant shift hold
        # bit for bit
        for g, n_angles in [(0.7, 12), (0.5, 8), (0.9, 40), (0.3, 7)]:
            k = hg_kernel_matrix(g, n_angles)
            assert (k == k.T).all()
            for shift in range(n_angles):
                assert (k[shift] == np.roll(k[0], shift)).all()

    def test_isotropic_kernel_is_all_ones(self):
        np.testing.assert_array_equal(hg_kernel_matrix(0.0, 6), np.ones((6, 6)))

    def test_entries_positive(self):
        assert hg_kernel_matrix(0.9, 16).min() > 0

    @pytest.mark.parametrize("g", [-0.1, 1.0, 1.5])
    def test_anisotropy_out_of_range_rejected(self, g):
        with pytest.raises(ValueError):
            hg_kernel_matrix(g, 8)


class TestCrossSections:
    def test_absorption_at_quarter_point(self):
        # the two ratio terms are both exactly 1 there, leaving
        # 1 + sin(4 * 0.25^4) + 2
        expected = 2.0 + 1.0 + np.sin(0.015625)
        assert float(sigma_a(0.25, 0.25, 1.0, 1.0)) == pytest.approx(expected, abs=1e-14)

    def test_absorption_scales_with_eps1(self):
        a1 = sigma_a(0.1, 0.3, 1.0, 0.5)
        a2 = sigma_a(0.1, 0.3, 0.25, 0.5)
        assert float(a2) == pytest.approx(0.25 * float(a1), rel=1e-14)

    def test_scattering_is_rescaled_elliptic_medium(self):
        assert float(sigma_s(0.1, 0.2, 0.5, 0.25)) == pytest.approx(
            float(kappa(0.1, 0.2, 0.25)) / 0.5, rel=1e-14
        )

    def test_two_photon_coefficient_at_origin(self):
        assert float(sigma_b(0.0, 0.0, 1.0)) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("eps", [1.0, 0.25])
    def test_cross_sections_positive_on_grid(self, eps):
        x1, x2 = Grid2D(16).interior_flat()
        assert sigma_a(x1, x2, 1.0, eps).min() > 0
        assert sigma_s(x1, x2, 1.0, eps).min() > 0
        assert sigma_b(x1, x2, 1.0).min() > 0


def per_angle_assembly(pg, sa, ss, kernel):
    """The transport operator built one angle's streaming block at a time."""
    n, h, n_v = pg.spatial.n_per_dim, pg.spatial.h, pg.n_angles
    eye_n = sp.identity(n, format="csr")
    cos_t, sin_t = pg.velocities()
    blocks = []
    for l in range(n_v):
        c, s = cos_t[l], sin_t[l]
        t_l = sp.csr_matrix((n * n, n * n))
        if abs(c) > 1e-14:
            t_l = t_l + c * sp.kron(_upwind_1d(n, h, c > 0), eye_n)
        if abs(s) > 1e-14:
            t_l = t_l + s * sp.kron(eye_n, _upwind_1d(n, h, s > 0))
        unit = sp.csr_matrix(([1.0], ([l], [l])), shape=(n_v, n_v))
        blocks.append(sp.kron(t_l, unit))
    collision = sp.kron(sp.diags(sa + ss), sp.identity(n_v, format="csr"))
    scattering = sp.kron(sp.diags(ss), sp.csr_matrix(kernel) / n_v)
    return (sum(blocks) + collision - scattering).tocsr()


class TestAssembly:
    def test_pure_streaming_matches_upwind_recursion(self):
        # one angle pointing along +x with sigma_s = 0 decouples to a
        # per-line recursion u_i = (f_i + u_{i-1}/h) / (1/h + c) with a zero
        # inflow ghost value
        pg = PhaseGrid(Grid2D(5), 1)
        n, h, c = pg.spatial.n_per_dim, pg.spatial.h, 0.7
        op = assemble_rte_from_fields(
            pg, np.full(n * n, c), np.zeros(n * n), np.ones((1, 1))
        )
        f = np.arange(1.0, n * n + 1)
        u = factorize(op).solve(f).reshape(n, n)
        expected = np.zeros((n, n))
        for j in range(n):
            prev = 0.0
            for i in range(n):
                prev = (f.reshape(n, n)[i, j] + prev / h) / (1.0 / h + c)
                expected[i, j] = prev
        np.testing.assert_allclose(u, expected, atol=1e-13)

    def test_constant_in_angle_fields_feel_no_net_scattering(self):
        # scattering average of an angle-constant field equals the field, so
        # sigma_s cancels between collision and gain terms
        pg = PhaseGrid(Grid2D(4), 6)
        nsp = pg.spatial.n_interior
        rng = np.random.Generator(np.random.Philox(8))
        sa = rng.uniform(1.0, 2.0, nsp)
        ss = rng.uniform(5.0, 9.0, nsp)
        kernel = hg_kernel_matrix(0.5, 6)
        op_scat = assemble_rte_from_fields(pg, sa, ss, kernel)
        op_none = assemble_rte_from_fields(pg, sa, np.zeros(nsp), kernel)
        field = np.repeat(rng.normal(size=nsp), 6)
        np.testing.assert_allclose(op_scat @ field, op_none @ field, atol=1e-10)

    def test_multiscale_assembly_matches_field_assembly(self):
        pg = PhaseGrid(Grid2D(5), 4)
        coeff = RteCoefficients(0.5, 0.25, 0.3)
        x1, x2 = pg.spatial.interior_flat()
        ref = assemble_rte_from_fields(
            pg,
            sigma_a(x1, x2, coeff.eps1, coeff.eps2),
            sigma_s(x1, x2, coeff.eps1, coeff.eps2),
            hg_kernel_matrix(coeff.g, 4),
        )
        assert abs(assemble_rte(pg, coeff) - ref).max() == 0.0

    @pytest.mark.parametrize("n_angles", [1, 2, 5, 8])
    def test_kronecker_assembly_is_bitwise_the_per_angle_loop(self, n_angles):
        pg = PhaseGrid(Grid2D(6), n_angles)
        coeff = RteCoefficients(0.7, 0.3, 0.5)
        x1, x2 = pg.spatial.interior_flat()
        sa = sigma_a(x1, x2, coeff.eps1, coeff.eps2)
        ss = sigma_s(x1, x2, coeff.eps1, coeff.eps2)
        kernel = hg_kernel_matrix(coeff.g, n_angles)
        op = assemble_rte_from_fields(pg, sa, ss, kernel)
        ref = per_angle_assembly(pg, sa, ss, kernel)
        assert op.has_sorted_indices and np.all(op.data != 0.0)
        for part in ("indptr", "indices", "data"):
            assert getattr(op, part).tobytes() == getattr(ref, part).tobytes()

    def test_beam_solution_is_strictly_positive(self):
        pg = PhaseGrid(Grid2D(8), 8)
        op = assemble_rte(pg, RteCoefficients())
        u = factorize(op).solve(eval_source_rte(pg))
        assert u.min() > 0

    def test_zero_source_gives_exactly_zero_solution(self):
        pg = PhaseGrid(Grid2D(6), 4)
        op = assemble_rte(pg, RteCoefficients())
        u = factorize(op).solve(np.zeros(op.shape[0]))
        assert np.abs(u).max() == 0.0

    def test_solution_linear_in_source(self):
        pg = PhaseGrid(Grid2D(6), 4)
        solver = factorize(assemble_rte(pg, RteCoefficients()))
        f = eval_source_rte(pg)
        np.testing.assert_allclose(
            solver.solve(3.0 * f), 3.0 * solver.solve(f), rtol=1e-12
        )


class TestBeamSource:
    def test_center_node_peak(self):
        # m = 4 puts an interior node exactly at the beam center (L/2, L/2)
        pg = PhaseGrid(Grid2D(4), 4)
        src = eval_source_rte(pg).reshape(9, 4)
        assert src[4, 0] == pytest.approx(1.0, abs=1e-14)

    def test_angular_falloff_from_forward_direction(self):
        # angular factor is exp(-(2 - 2 cos theta) / 0.04): one lattice step
        # away from theta = 0 on a 4-angle circle costs exp(-50)
        pg = PhaseGrid(Grid2D(4), 4)
        src = eval_source_rte(pg).reshape(9, 4)
        profile = src[4, :] / src[4, 0]
        np.testing.assert_allclose(
            profile, [1.0, np.exp(-50.0), np.exp(-100.0), np.exp(-50.0)], rtol=1e-10
        )

    def test_scale_factor(self):
        pg = PhaseGrid(Grid2D(4), 4)
        np.testing.assert_allclose(
            eval_source_rte(pg, 0.1), 0.1 * eval_source_rte(pg), atol=1e-16
        )

    def test_spatially_symmetric_about_the_center(self):
        pg = PhaseGrid(Grid2D(6), 1)
        src = eval_source_rte(pg).reshape(25, 1)[:, 0].reshape(5, 5)
        np.testing.assert_allclose(src, src[::-1, :], atol=1e-15)
        np.testing.assert_allclose(src, src[:, ::-1], atol=1e-15)


class TestReciprocity:
    """L^T = P L P bit for bit, with P reversing every direction, l -> l + n_angles/2."""

    @pytest.mark.parametrize("n_angles", [2, 4, 6, 8, 12, 40])
    def test_reversed_velocities_are_exact_negations(self, n_angles):
        cos_t, sin_t = PhaseGrid(Grid2D(4), n_angles).velocities()
        half = n_angles // 2
        assert (cos_t[half:] == -cos_t[:half]).all()
        assert (sin_t[half:] == -sin_t[:half]).all()
        np.testing.assert_allclose(cos_t ** 2 + sin_t ** 2, 1.0, atol=1e-15)

    def test_reversal_maps_each_direction_to_its_opposite(self):
        pg = PhaseGrid(Grid2D(4), 6)
        p = pg.reversal()
        np.testing.assert_array_equal(p[p], np.arange(pg.n_dofs))
        np.testing.assert_array_equal(p.reshape(9, 6)[4], [27, 28, 29, 24, 25, 26])

    @pytest.mark.parametrize("n_angles", [1, 5, 7])
    def test_odd_angle_counts_have_no_reversal(self, n_angles):
        assert PhaseGrid(Grid2D(4), n_angles).reversal() is None

    @pytest.mark.parametrize("n_angles", [2, 4, 6, 8, 12, 16, 40])
    @pytest.mark.parametrize("coeff", [RteCoefficients(1.0, 1.0, 0.5),
                                       RteCoefficients(1.0 / 16, 1.0 / 8, 0.9),
                                       RteCoefficients(0.25, 1.0, 0.0)])
    def test_assembled_operator_is_reciprocal_bit_for_bit(self, n_angles, coeff):
        for m in (4, 7, 10):
            pg = PhaseGrid(Grid2D(m), n_angles)
            op = assemble_rte(pg, coeff).tocsr()
            p = pg.reversal()
            assert (op.T.tocsr() != op[p][:, p]).nnz == 0
