"""Difference operators, Sobolev weight factors and the phase-space weight."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from optbasis.exceptions import DimensionMismatch, OrderTooHigh, SingularOperator
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.weights import (
    SOLVE_BLOCK,
    WeightFactor,
    build_rte_weight,
    build_sobolev_weight,
    energy_norm,
    fd_operator_1d,
    fd_operator_2d,
    identity_weight,
    sobolev_gram_matrix,
)


class TestGrids:
    def test_spacing_and_counts(self):
        g = Grid2D(4)
        assert g.h == 0.125
        assert g.n_per_dim == 3
        assert g.n_interior == 9
        np.testing.assert_allclose(g.interior_1d(), [0.125, 0.25, 0.375])

    def test_flat_layout_is_x_major(self):
        # x1 varies slowest: the first n_per_dim entries share x1 = h
        g = Grid2D(4)
        x1, x2 = g.interior_flat()
        np.testing.assert_allclose(x1[:3], [0.125, 0.125, 0.125])
        np.testing.assert_allclose(x2[:3], [0.125, 0.25, 0.375])

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(1)
        with pytest.raises(ValueError):
            Grid2D(4, length=0.0)

    def test_phase_grid_angles_and_velocities(self):
        pg = PhaseGrid(Grid2D(4), 4)
        np.testing.assert_allclose(pg.theta, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        vx, vy = pg.velocities()
        np.testing.assert_allclose(vx, [1.0, 0.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(vy, [0.0, 1.0, 0.0, -1.0], atol=1e-15)
        assert pg.n_dofs == 36


class TestDifferenceOperators:
    def test_first_difference_stencil(self):
        d = fd_operator_1d(4, 1, 0.125)
        np.testing.assert_allclose(
            d.toarray(), [[-8.0, 8.0, 0.0], [0.0, -8.0, 8.0]]
        )

    def test_order_zero_is_identity(self):
        d = fd_operator_1d(5, 0, 0.1)
        assert (d != sp.identity(4)).nnz == 0

    def test_second_difference_stencil(self):
        d = fd_operator_1d(6, 2, 0.5)
        row = d.toarray()[0]
        np.testing.assert_allclose(row, [4.0, -8.0, 4.0, 0.0, 0.0])

    def test_kth_difference_annihilates_lower_degree_polynomials(self):
        h = 0.125
        x = h * np.arange(1, 8)
        for k in (1, 2, 3):
            d = fd_operator_1d(8, k, h)
            for deg in range(k):
                np.testing.assert_allclose(d @ x**deg, 0.0, atol=1e-10)

    def test_exact_on_monomial_of_matching_degree(self):
        # k-th forward difference of x^k / k! is exactly 1 in exact arithmetic
        h = 0.25
        x = h * np.arange(1, 10)
        for k in (1, 2, 3):
            d = fd_operator_1d(10, k, h)
            vals = d @ (x**k)
            np.testing.assert_allclose(vals, math.factorial(k), rtol=1e-9)

    def test_order_too_high_raises(self):
        with pytest.raises(OrderTooHigh):
            fd_operator_1d(3, 2, 0.1)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            fd_operator_1d(4, -1, 0.1)

    def test_2d_operator_is_kron_of_1d(self):
        dx = fd_operator_1d(5, 1, 0.1)
        dy = fd_operator_1d(5, 2, 0.1)
        d2 = fd_operator_2d(5, 1, 2, 0.1)
        ref = sp.kron(dx, dy)
        assert abs(d2 - ref).max() == 0.0


class TestSobolevWeight:
    def test_order_zero_inner_product(self):
        # Pi = h^2 I on the 3x3 interior of a 4-interval grid: <1, 1> = 9 h^2
        w = build_sobolev_weight(0, Grid2D(4))
        ones = np.ones(9)
        assert w.norm(ones) ** 2 == pytest.approx(0.140625, abs=1e-15)

    def test_constant_field_sees_only_the_l2_part(self):
        # differences of a constant vanish, so p=1 gives the same value as p=0
        w = build_sobolev_weight(1, Grid2D(4))
        ones = np.ones(9)
        assert w.norm(ones) ** 2 == pytest.approx(0.140625, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_factor_reproduces_gram_matrix(self, p):
        grid = Grid2D(6)
        gram = sobolev_gram_matrix(6, p, grid.h).toarray()
        w = build_sobolev_weight(p, grid)
        f = band_matrix(w.band).toarray()
        assert np.abs(f.T @ f - gram).max() <= 1e-10 * np.abs(gram).max()

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_weight_matrix_is_spd(self, p):
        w = build_sobolev_weight(p, Grid2D(5))
        eigs = np.linalg.eigvalsh(w.gram().toarray())
        assert eigs.min() > 0

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_apply_solve_roundtrips(self, p):
        w = build_sobolev_weight(p, Grid2D(5))
        rng = np.random.Generator(np.random.Philox(2))
        v = rng.normal(size=w.dim)
        np.testing.assert_allclose(w.solve(w.apply(v)), v, atol=1e-11)
        np.testing.assert_allclose(w.apply_t(w.solve_t(v)), v, atol=1e-11)

    def test_norm_is_consistent_with_inner(self):
        w = build_sobolev_weight(2, Grid2D(6))
        rng = np.random.Generator(np.random.Philox(4))
        v = rng.normal(size=w.dim)
        assert w.norm(v) == pytest.approx(np.sqrt(v @ (w.gram() @ v)), rel=1e-12)

    def test_matrix_argument_maps_columnwise(self):
        # every map runs on fixed 32-column panels off transport, the last one
        # zero-padded, and on one matrix a column on it, so a column's bits do
        # not depend on its neighbours or on where the panel edges fall; the
        # layout-free reference checks every column, the tail panel's too
        cases = [
            (build_sobolev_weight(1, Grid2D(12)), method, cols)
            for method in METHODS for cols in (1, 31, 32, 33, 330)]
        cases += [
            (build_rte_weight(p, PhaseGrid(Grid2D(10), n_angles)), method, cols)
            for p in (1, 2) for n_angles in (7, 40)
            for method in METHODS for cols in (1, 31, 32, 33, 100)]
        for w, method, cols in cases:
            rng = np.random.Generator(np.random.Philox(6))
            block = rng.normal(size=(w.dim, cols))
            out = getattr(w, method)(block)
            for j in range(cols):
                np.testing.assert_array_equal(out[:, j], getattr(w, method)(block[:, j]))
            reference = row_major_map(w, method, block)
            assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            build_sobolev_weight(3, Grid2D(8))

    def test_order_exceeding_grid_rejected(self):
        with pytest.raises(OrderTooHigh):
            build_sobolev_weight(2, Grid2D(3))

    def test_dimension_mismatch_detected(self):
        w = build_sobolev_weight(1, Grid2D(4))
        with pytest.raises(DimensionMismatch):
            w.apply(np.ones(4))


class TestTriangularFactor:
    def test_rejects_asymmetric_matrix(self):
        bad = np.array([[2.0, 0.5], [0.0, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            WeightFactor.from_gram(bad)

    def test_rejects_indefinite_matrix(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            WeightFactor.from_gram(bad)

    def test_factor_is_upper_triangular(self):
        gram = sobolev_gram_matrix(5, 1, 0.1)
        w = WeightFactor.from_gram(gram)
        f = band_matrix(w.band).toarray()
        assert np.abs(np.tril(f, -1)).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=1000))
    def test_random_spd_matrices_factor_correctly(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        b = rng.normal(size=(n, n))
        gram = b.T @ b + n * np.eye(n)
        w = WeightFactor.from_gram(sp.csr_matrix(gram))
        f = band_matrix(w.band).toarray()
        np.testing.assert_allclose(f.T @ f, gram, rtol=1e-10, atol=1e-10)
        v = rng.normal(size=n)
        np.testing.assert_allclose(w.solve(w.apply(v)), v, atol=1e-9)
        assert w.norm(v) ** 2 == pytest.approx(v @ gram @ v, rel=1e-10)


    @pytest.mark.parametrize("make", [
        lambda: build_sobolev_weight(2, Grid2D(6)),
        lambda: build_rte_weight(1, PhaseGrid(Grid2D(4), 4)),
    ])
    def test_block_of_no_columns_solves_to_no_columns(self, make):
        w = make()
        empty = np.zeros((w.dim, 0))
        assert w.solve(empty).shape == (w.dim, 0)
        assert w.solve_t(empty).shape == (w.dim, 0)


class TestPhaseSpaceWeight:
    def test_order_zero_is_scaled_identity(self):
        pg = PhaseGrid(Grid2D(4), 5)
        w = build_rte_weight(0, pg)
        gram = w.gram().toarray()
        expected = (pg.spatial.h**2 / 5) * np.eye(45)
        assert np.abs(gram - expected).max() < 1e-15

    def test_tensor_factor_matches_explicit_kron(self):
        pg = PhaseGrid(Grid2D(4), 5)
        w = build_rte_weight(1, pg)
        spatial = build_sobolev_weight(1, pg.spatial)
        dense = sp.kron(band_matrix(spatial.band), sp.identity(5) / np.sqrt(5)).toarray()
        rng = np.random.Generator(np.random.Philox(3))
        v = rng.normal(size=45)
        np.testing.assert_allclose(w.apply(v), dense @ v, atol=1e-13)
        np.testing.assert_allclose(w.apply_t(v), dense.T @ v, atol=1e-13)

    def test_roundtrips_and_matrix_rhs(self):
        pg = PhaseGrid(Grid2D(4), 3)
        w = build_rte_weight(2, pg)
        rng = np.random.Generator(np.random.Philox(9))
        block = rng.normal(size=(w.dim, 2))
        np.testing.assert_allclose(w.solve(w.apply(block)), block, atol=1e-10)
        np.testing.assert_allclose(w.solve_t(w.apply_t(block)), block, atol=1e-10)

    def test_angular_average_normalization(self):
        # a field constant in angle has the same weighted norm as its spatial
        # part under the pure spatial weight
        pg = PhaseGrid(Grid2D(5), 7)
        w = build_rte_weight(1, pg)
        spatial = build_sobolev_weight(1, pg.spatial)
        rng = np.random.Generator(np.random.Philox(10))
        field = rng.normal(size=pg.spatial.n_interior)
        full = np.repeat(field, 7)
        assert w.norm(full) == pytest.approx(spatial.norm(field), rel=1e-12)


class TestEnergyNorm:
    def test_linear_field_has_exact_energy(self):
        # u = x1: forward differences are exactly 1 on all (m-2)(m-1) rows,
        # so the energy is sqrt(h^2 * (m-2)(m-1))
        g = Grid2D(4)
        x1, _ = g.interior_mesh()
        assert energy_norm(x1.ravel(), g) == pytest.approx(np.sqrt(0.09375), abs=1e-15)

    def test_constant_field_has_zero_energy(self):
        g = Grid2D(6)
        assert energy_norm(np.ones(g.n_interior), g) == 0.0

    def test_symmetric_in_the_two_directions(self):
        g = Grid2D(5)
        x1, x2 = g.interior_mesh()
        assert energy_norm(x1.ravel(), g) == pytest.approx(
            energy_norm(x2.ravel(), g), rel=1e-14
        )

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            energy_norm(np.ones(5), Grid2D(4))

    def test_a_block_gives_each_columns_norm_bitwise(self):
        g = Grid2D(9)
        block = np.random.Generator(np.random.Philox(8)).standard_normal((g.n_interior, 5))
        norms = energy_norm(block, g)
        assert norms.shape == (5,)
        assert norms.tolist() == [energy_norm(block[:, j], g) for j in range(5)]

    @pytest.mark.parametrize("m", [6, 7, 12, 32])
    def test_bit_identical_to_the_difference_operators(self, m):
        g = Grid2D(m)
        d_x = fd_operator_2d(m, 1, 0, g.h)
        d_y = fd_operator_2d(m, 0, 1, g.h)
        rng = np.random.Generator(np.random.Philox(m))
        for _ in range(20):
            u = rng.standard_normal(g.n_interior)
            dx, dy = d_x @ u, d_y @ u
            expected = float(np.sqrt(g.h ** 2 * (np.dot(dx, dx) + np.dot(dy, dy))))
            assert energy_norm(u, g) == expected


class TestDiagonalFactor:
    def test_identity_weight_is_plain_dot(self):
        w = identity_weight(4)
        a = np.array([1.0, 2.0, 0.0, -1.0])
        assert w.norm(a) == pytest.approx(np.sqrt(6.0))

    def test_scale_enters_quadratically(self):
        w = WeightFactor.diagonal(0.5, 3)
        assert w.norm(np.ones(3)) ** 2 == pytest.approx(0.75)
        assert (w.gram() != 0.25 * sp.identity(3)).nnz == 0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            WeightFactor.diagonal(0.0, 3)


OVERWRITE_FACTORS = [
    pytest.param(lambda: WeightFactor.diagonal(0.3, 36), id="diagonal"),
    pytest.param(lambda: build_sobolev_weight(1, Grid2D(7)), id="sobolev-p1"),
    pytest.param(lambda: build_sobolev_weight(2, Grid2D(7)), id="sobolev-p2"),
    pytest.param(lambda: build_rte_weight(1, PhaseGrid(Grid2D(7), 6)), id="transport-p1"),
    pytest.param(lambda: build_rte_weight(0, PhaseGrid(Grid2D(7), 6)), id="transport-p0"),
    pytest.param(lambda: build_sobolev_weight(2, Grid2D(12)), id="sobolev-p2-two-blocks"),
    pytest.param(lambda: build_rte_weight(1, PhaseGrid(Grid2D(12), 6)),
                 id="transport-p1-two-blocks"),
]
METHODS = ["apply", "apply_t", "solve", "solve_t"]


def band_matrix(band):
    """CSR F_s of scipy's upper banded storage, the oracle of the blocked products."""
    n = band.shape[1]
    return sp.dia_matrix((band[::-1], np.arange(band.shape[0])), shape=(n, n)).tocsr()


def row_major_map(w, method, v):
    """The map on the C-ordered (n_s, k * cols) reshape of v, the layout-free reference."""
    if method in ("apply", "apply_t"):
        factor = band_matrix(w.band)
        factor = factor.T if method == "apply_t" else factor
        d = w.band[0][:, None]
        op = (lambda x: x * d) if w.band.shape[0] == 1 else (lambda x: factor @ x)
    else:
        def op(x):
            return lapack.dtbtrs(w.band, x, trans="N" if method == "solve" else "T")[0]
    return op(v.reshape(w.n_spatial, -1)).reshape(v.shape)


class TestOverwrite:
    @pytest.mark.parametrize("make", OVERWRITE_FACTORS)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("cols", [None, 1, 5])
    def test_in_place_map_is_bitwise_the_copying_map(self, make, method, cols):
        w = make()
        rng = np.random.Generator(np.random.Philox(41))
        v = rng.normal(size=(w.dim,) if cols is None else (w.dim, cols))
        before = v.copy()
        copied = getattr(w, method)(v)
        assert np.array_equal(v, before)  # the default leaves its input alone
        block = np.asfortranarray(v)
        in_place = getattr(w, method)(block, overwrite_b=True)
        assert in_place is block
        assert copied.tobytes() == in_place.tobytes()
        reference = row_major_map(w, method, np.ascontiguousarray(before))
        if w.band.shape[0] > 1:
            # blocked GEMMs against dtbtrs and a CSR product: a different summation order
            gap = np.linalg.norm(copied - reference) / np.linalg.norm(reference)
            assert gap <= (1e-12 if method.startswith("solve") else 1e-14)
        else:
            assert copied.tobytes() == np.ascontiguousarray(reference).tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_a_row_ordered_block_is_copied_even_when_overwrite_is_allowed(self, method):
        w = build_rte_weight(1, PhaseGrid(Grid2D(5), 4))
        v = np.random.Generator(np.random.Philox(43)).normal(size=(w.dim, 3))
        before = v.copy()
        out = getattr(w, method)(v, overwrite_b=True)
        assert np.array_equal(v, before)
        assert out.tobytes() == getattr(w, method)(before).tobytes()


class TestSingularBand:
    @pytest.mark.parametrize("band", [
        np.array([[2.0, 1.0, 0.0, 3.0]]),                       # diagonal
        np.array([[0.0, 0.5, 0.5, 0.5], [1.0, 2.0, 0.0, 1.0]]),  # one superdiagonal
    ], ids=["diagonal", "banded"])
    @pytest.mark.parametrize("method", ["solve", "solve_t"])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_a_zero_on_the_diagonal_raises_singular_operator(self, band, method,
                                                             overwrite):
        # refused when the factor is built; info is dtbtrs's 1-based global index
        with pytest.raises(SingularOperator, match=r"info=3"):
            w = WeightFactor(band, sp.identity(4, format="csr"))
            getattr(w, method)(np.ones((4, 2), order="F"), overwrite_b=overwrite)


def random_band(n, u, seed):
    """Upper banded storage of a well-conditioned upper triangular factor of bandwidth u."""
    rng = np.random.Generator(np.random.Philox(seed))
    band = rng.uniform(-1.0, 1.0, size=(u + 1, n))
    band[u] = rng.uniform(2.0, 3.0, size=n) * (u + 1)
    for d in range(1, u + 1):
        band[u - d, :d] = 0.0  # scipy's storage leaves the top-left corner unused
    return band


def assert_solves_match_dtbtrs(w, cols=40, seed=51):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=(w.dim, cols))
    for method in ("solve", "solve_t"):
        got, ref = getattr(w, method)(v), row_major_map(w, method, v)  # dtbtrs
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), method


def assert_products_match_band(w, cols=40, seed=52):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.normal(size=(w.dim, cols))
    for method in ("apply", "apply_t"):
        got, ref = getattr(w, method)(v), row_major_map(w, method, v)  # CSR F_s
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), method


class TestSinglePrecision:
    # The sketch's power passes map float32 blocks: each stays float32, in
    # its own memory, within 1e-6 of the float64 map.
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("n_angles", [7, 40])
    @pytest.mark.parametrize("method", METHODS)
    def test_transport_maps_keep_float32_near_float64(self, p, n_angles, method):
        w = build_rte_weight(p, PhaseGrid(Grid2D(12), n_angles))
        v = np.random.Generator(np.random.Philox(57)).normal(size=(w.dim, 9))
        block = np.asfortranarray(v, dtype=np.float32)
        assert getattr(w, method)(block, overwrite_b=True) is block
        want = getattr(w, method)(v)
        assert np.linalg.norm(block - want) <= 1e-6 * np.linalg.norm(want)


class TestTransportSolveMemory:
    @pytest.mark.parametrize("method", ["solve", "solve_t", "apply", "apply_t"])
    def test_in_place_solve_holds_two_column_stacks_not_a_copy(self, method):
        # each GEMM works on one column's (b, k) rows, so the temporaries are
        # two (cols, b, k) stacks, far below one copy of the block
        w = build_rte_weight(1, PhaseGrid(Grid2D(24), 40))
        cols = 100
        block = np.asfortranarray(
            np.random.Generator(np.random.Philox(61)).normal(size=(w.dim, cols)))
        b = max(w.band.shape[0] - 1, SOLVE_BLOCK)
        bound = 2 * cols * b * w.n_minor * block.itemsize + 64 * 1024
        assert bound < block.nbytes / 4
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = getattr(w, method)(block, overwrite_b=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert out is block
        assert peak - start <= bound


class TestBlockedSolve:
    # The blocked substitution against dtbtrs, normwise, on every weight the
    # package builds and on the block layouts that have edge cases.
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("m", [6, 7, 12, 32, 64])
    def test_sobolev_weights_match_dtbtrs(self, p, m):
        assert_solves_match_dtbtrs(build_sobolev_weight(p, Grid2D(m)))

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("n_angles", [7, 8, 40])
    def test_transport_weights_match_dtbtrs(self, p, n_angles):
        assert_solves_match_dtbtrs(build_rte_weight(p, PhaseGrid(Grid2D(8), n_angles)))

    @pytest.mark.parametrize("n, u, blocks", [
        pytest.param(150, 10, [64, 64, 22], id="ragged-last-block"),
        pytest.param(50, 10, [50], id="single-block"),
        pytest.param(128, 64, [64, 64], id="band-as-wide-as-a-block"),
        pytest.param(130, 1, [64, 64, 2], id="one-superdiagonal"),
        pytest.param(200, 80, [80, 80, 40], id="blocks-as-wide-as-the-band"),
    ])
    def test_block_layouts_match_dtbtrs(self, n, u, blocks):
        w = WeightFactor(random_band(n, u, n + u), sp.identity(n, format="csr"))
        assert [len(t) for t in w._triangles] == blocks
        assert_solves_match_dtbtrs(w, cols=70)
        assert_products_match_band(w, cols=70)

    @pytest.mark.parametrize("make", [
        lambda: build_sobolev_weight(0, Grid2D(9)),
        lambda: build_rte_weight(0, PhaseGrid(Grid2D(9), 6)),
    ], ids=["sobolev", "transport"])
    @pytest.mark.parametrize("method", ["solve", "solve_t"])
    def test_order_zero_divides_bitwise(self, make, method):
        w = make()
        v = np.random.Generator(np.random.Philox(53)).normal(size=(w.dim, 35))
        expected = (v.reshape(w.n_spatial, -1) / w.band[0][:, None]).reshape(v.shape)
        assert getattr(w, method)(v).tobytes() == np.ascontiguousarray(expected).tobytes()
