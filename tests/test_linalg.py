"""Factorized sparse solves, the LU span basis, the thin QR and the dense SVD wrapper."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from optbasis import linalg
from optbasis.elliptic import EllipticMedium, assemble_elliptic
from optbasis.exceptions import (
    DimensionMismatch,
    InvalidArgument,
    ProblemTooLarge,
    SingularOperator,
    SvdFailure,
)
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.linalg import (
    SOLVE_CHUNK,
    FactorizedSolver,
    NodeBlockLU,
    block_ordering,
    factorize,
    lu_basis,
    QR_BLOCKED,
    qr_factors,
    qr_thin,
    r_svd,
    reciprocity_defect,
    svd_dense,
)
from optbasis.nonlinear import TwoPhotonTerm
from optbasis.transport import RteCoefficients, assemble_rte, eval_source_rte


def dirichlet_laplacian_1d(m, h):
    n = m - 1
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


class TestFactorizedSolver:
    def test_tridiagonal_solve_matches_hand_inverse(self):
        # -u'' = 1 on three interior nodes, h = 1/4: the inverse of
        # tridiag(-1, 2, -1) applied to ones is (1.5, 2, 1.5), so after the
        # 1/h^2 scaling the solution is that vector times h^2.
        solver = factorize(dirichlet_laplacian_1d(4, 0.25))
        x = solver.solve(np.ones(3))
        np.testing.assert_allclose(x, [0.09375, 0.125, 0.09375], rtol=0, atol=1e-14)

    def test_transpose_solve_uses_the_transposed_operator(self):
        a = sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        solver = factorize(a)
        np.testing.assert_allclose(
            solver.solve_transpose(np.array([1.0, 0.0])), [0.5, -1.0 / 6.0], atol=1e-15
        )
        np.testing.assert_allclose(
            solver.solve_transpose(np.array([0.0, 1.0])), [0.0, 1.0 / 3.0], atol=1e-15
        )

    def test_solve_and_transpose_agree_with_dense_reference(self):
        rng = np.random.Generator(np.random.Philox(5))
        a = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        solver = factorize(sp.csc_matrix(a))
        b = rng.normal(size=8)
        np.testing.assert_allclose(solver.solve(b), np.linalg.solve(a, b), rtol=1e-12)
        np.testing.assert_allclose(
            solver.solve_transpose(b), np.linalg.solve(a.T, b), rtol=1e-12
        )

    def test_matrix_right_hand_side_solves_columnwise(self):
        solver = factorize(dirichlet_laplacian_1d(5, 0.125))
        rhs = np.eye(4)[:, :3]
        block = solver.solve(rhs)
        for j in range(3):
            np.testing.assert_array_equal(block[:, j], solver.solve(rhs[:, j]))

    def test_rectangular_operator_rejected(self):
        with pytest.raises(DimensionMismatch):
            FactorizedSolver(sp.csr_matrix(np.ones((3, 2))))

    def test_empty_operator_rejected_before_any_work(self, monkeypatch):
        monkeypatch.setattr(linalg.spla, "splu", None)
        with pytest.raises(DimensionMismatch, match="not empty, got 0x0"):
            factorize(sp.csr_matrix((0, 0)))

    def test_wrong_rhs_length_rejected(self):
        solver = factorize(sp.identity(4, format="csc"))
        with pytest.raises(DimensionMismatch):
            solver.solve(np.ones(5))

    def test_exactly_singular_diagonal_detected(self):
        with pytest.raises(SingularOperator):
            factorize(sp.diags([1.0, 0.0, 2.0]))

    def test_numerically_singular_matrix_detected(self):
        # rank-one 2x2; splu may factor it without raising, the pivot check
        # has to catch it
        a = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularOperator):
            factorize(a)

    def test_nearly_singular_matrix_detected_by_the_condition_estimate(self):
        # splu factors this one; its 1-norm condition number is about 4e15
        a = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        with pytest.raises(SingularOperator, match="condition number"):
            factorize(a)

    def test_keeps_operator_reference(self):
        op = dirichlet_laplacian_1d(4, 0.25)
        solver = factorize(op)
        assert solver.n == 3
        assert (solver.operator != sp.csc_matrix(op)).nnz == 0

    def test_keeps_the_callers_sparse_operator_and_a_dense_one_as_csr(self):
        op = dirichlet_laplacian_1d(6, 0.2)
        assert factorize(op).operator is op
        assert factorize(op.tocsc()).operator.format == "csc"
        dense = factorize(op.toarray()).operator
        assert dense.format == "csr" and (dense != op).nnz == 0

    @pytest.mark.parametrize("node_size", [1, 7])
    def test_duplicate_entries_are_summed_in_a_copy(self, node_size):
        # every entry split into two halves; scipy's norm, read by the condition
        # estimate, would sum them in the caller's own arrays
        _, op = rte_operator(7)
        split = entries_split_in_halves(op)
        before = {part: getattr(split, part).copy() for part in ("indptr", "indices", "data")}
        solver = factorize(split, node_size)
        b = np.random.Generator(np.random.Philox(83)).standard_normal((op.shape[0], 3))
        x, xt = solve_both(solver, b)
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(op), b)) <= 1e-12
        assert relative_gap(xt, spla.spsolve(sp.csc_matrix(op.T), b)) <= 1e-12
        for part, values in before.items():
            np.testing.assert_array_equal(getattr(split, part), values)


@pytest.fixture(scope="module")
def transport_operator():
    # the transport-basis benchmark case: m = 12 with 40 angles, 4,840 unknowns
    return assemble_rte(PhaseGrid(Grid2D(12), 40), RteCoefficients(1.0, 1.0, 0.5))


def entries_split_in_halves(op):
    """op with every entry stored twice, as two halves: a CSR that is not canonical."""
    split = sp.csr_matrix((np.repeat(op.data / 2, 2), np.repeat(op.indices, 2),
                           2 * op.indptr), shape=op.shape)
    assert not split.has_canonical_format and split.nnz == 2 * op.nnz
    return split


def relative_gap(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestOrdering:
    def test_transport_fill_stays_below_the_colamd_fill(self, transport_operator):
        # minimum degree on A^T + A gives 1.48M stored entries (1.44M in L + U);
        # scipy's default COLAMD gives 2.49M in L + U
        assert factorize(transport_operator).nnz <= 1_600_000

    def test_nnz_counts_both_factors_and_is_read_only(self):
        solver = factorize(dirichlet_laplacian_1d(8, 0.125))
        assert solver.nnz >= solver.operator.nnz
        with pytest.raises(AttributeError):
            solver.nnz = 0

    @pytest.mark.parametrize("operator", ["transport", "elliptic"])
    def test_solves_match_spsolve(self, operator, transport_operator):
        a = sp.csc_matrix(transport_operator if operator == "transport"
                          else assemble_elliptic(Grid2D(16), EllipticMedium(0.0625)))
        solver = factorize(a)
        rng = np.random.Generator(np.random.Philox(21))
        b = rng.standard_normal((a.shape[0], 3))
        assert relative_gap(solver.solve(b), spla.spsolve(a, b)) <= 1e-12
        assert relative_gap(solver.solve_transpose(b),
                            spla.spsolve(sp.csc_matrix(a.T), b)) <= 1e-12

    def test_block_ordering_fill_stays_below_superlus_own(self, transport_operator):
        # minimum degree on the 121 spatial nodes, each expanded into its 40
        # angles: SuperLU stores 1,323,309 entries in that order against
        # 1,480,628 in its own.  The block LDU factor stores 1,545,040, its
        # kept rows and columns dense where an LU's triangles keep zeros.
        o = block_ordering(transport_operator, 40)
        in_block_order = spla.splu(sp.csc_matrix(transport_operator[o][:, o]),
                                   **{**linalg._SPLU_OPTIONS, "permc_spec": "NATURAL"})
        assert in_block_order.nnz <= 1_400_000 < factorize(transport_operator).nnz
        assert factorize(transport_operator, 40).nnz == 1_545_040

    @pytest.mark.parametrize("n_angles", [8, 7])
    def test_block_ordering_keeps_each_nodes_angles_together_and_in_order(self, n_angles):
        op = assemble_rte(PhaseGrid(Grid2D(8), n_angles), RteCoefficients(0.25, 0.5, 0.7))
        before = op.copy()
        o = block_ordering(op, n_angles)
        np.testing.assert_array_equal(np.sort(o), np.arange(op.shape[0]))
        nodes = o.reshape(-1, n_angles)
        np.testing.assert_array_equal(nodes, nodes[:, :1] + np.arange(n_angles))
        assert np.all(nodes[:, 0] % n_angles == 0)
        assert not np.array_equal(nodes[:, 0], np.arange(0, op.shape[0], n_angles))
        # the operator it reads is left as it was
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(op, part), getattr(before, part))

    def test_block_ordering_needs_whole_nodes(self):
        with pytest.raises(InvalidArgument, match="nodes of 4"):
            block_ordering(sp.identity(10, format="csr"), 4)

    @pytest.mark.parametrize("n_angles", [8, 7])
    @pytest.mark.parametrize("cols", [None, 1, 33, 100])
    def test_ordered_solves_match_spsolve(self, n_angles, cols):
        op, node_size = reciprocal_case(f"rte-{'odd' if n_angles % 2 else 'even'}",
                                        ordered=True)
        solver = factorize(op, node_size)
        np.testing.assert_array_equal(solver._lu.order, block_ordering(op, n_angles))
        rng = np.random.Generator(np.random.Philox(23))
        b = rng.standard_normal((op.shape[0],) if cols is None else (op.shape[0], cols))
        x, xt = solve_both(solver, b)
        assert x.shape == xt.shape == b.shape
        for got, a in ((x, op), (xt, op.T)):
            expected = spla.spsolve(sp.csc_matrix(a), b).reshape(b.shape)
            assert relative_gap(got, expected) <= 1e-12

    @pytest.mark.parametrize("case, message", [("exact", "exactly singular"),
                                               ("numerical", "condition number")])
    def test_a_singular_operator_with_an_ordering_raises_singular_operator(self, case,
                                                                          message):
        op, node_size = reciprocal_case("rte-even", ordered=True)
        op = sp.lil_matrix(op)
        # a zero row gives SuperLU an exactly zero pivot; a row equal to the
        # next one up to 1e-12 is factored, and the condition estimate refuses it
        op[5, :] = 0.0 if case == "exact" else op[6, :] * (1.0 + 1e-12)
        with pytest.raises(SingularOperator, match=message):
            factorize(op, node_size)

    @pytest.mark.parametrize("diagonal", [0.0, 1e-8])
    def test_zero_or_tiny_diagonal_is_pivoted_away(self, diagonal):
        # a nonsymmetric tridiagonal matrix with its rows rolled by three, so
        # the diagonal holds only `diagonal`; pivoting on a 1e-8 diagonal
        # entry (what a zero pivot threshold does) loses every digit
        n = 12
        rng = np.random.Generator(np.random.Philox(3))
        tri = np.diag(rng.uniform(3.0, 4.0, n))
        tri += np.diag(rng.uniform(-1.0, -0.5, n - 1), -1)
        tri += np.diag(rng.uniform(-2.0, -1.0, n - 1), 1)
        a = np.roll(tri, 3, axis=0) + diagonal * np.eye(n)
        solver = factorize(sp.csc_matrix(a))
        b = rng.standard_normal(n)
        assert relative_gap(solver.solve(b), np.linalg.solve(a, b)) <= 1e-12
        assert relative_gap(solver.solve_transpose(b), np.linalg.solve(a.T, b)) <= 1e-12


def rte_operator(n_angles, eps1=0.25, g=0.5):
    pg = PhaseGrid(Grid2D(8), n_angles)
    return pg, assemble_rte(pg, RteCoefficients(eps1, 1.0, g))


def two_photon_jacobian(n_angles):
    # the semilinear_rte Jacobian at the linear solution of a beam of amplitude 1000
    pg, op = rte_operator(n_angles, eps1=1.0)
    u = spla.spsolve(sp.csc_matrix(op), eval_source_rte(pg, 1000.0))
    return (op + TwoPhotonTerm(pg, 1.0).jacobian(u)).tocsr()


def node_rows_rolled(op, n_angles):
    """The operator with each node's rows rolled by half a node: every diagonal
    block then puts its largest entries off its diagonal, so getrf pivots."""
    rows = np.arange(op.shape[0]).reshape(-1, n_angles)
    return sp.csr_matrix(op)[np.roll(rows, n_angles // 2, axis=1).ravel()]


def block_cases():
    cases = [pytest.param(n_angles, eps1, g, id=f"rte-{n_angles}-eps1={eps1}-g={g}")
             for n_angles in (8, 7) for eps1 in (1.0, 0.25, 0.0625) for g in (0.0, 0.5)]
    return cases + [pytest.param(n_angles, None, None, id=f"jacobian-{n_angles}")
                    for n_angles in (8, 7)]


def lapack_pivots(block):
    """The row swaps getrf makes on a dense block."""
    return scipy.linalg.lapack.dgetrf(block)[1]


class TestNodeBlockLU:
    @pytest.mark.parametrize("n_angles, eps1, g", block_cases())
    @pytest.mark.parametrize("cols", [1, 33])
    def test_solves_match_spsolve(self, n_angles, eps1, g, cols):
        if eps1 is None:
            op = two_photon_jacobian(n_angles)
        else:
            _, op = rte_operator(n_angles, eps1, g)
        solver = factorize(op, n_angles)
        assert isinstance(solver._lu, NodeBlockLU)
        b = np.random.Generator(np.random.Philox(71)).standard_normal((op.shape[0], cols))
        x, xt = solve_both(solver, b)
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(op), b).reshape(b.shape)) <= 1e-12
        assert relative_gap(xt, spla.spsolve(sp.csc_matrix(op.T), b).reshape(b.shape)) <= 1e-12

    @pytest.mark.parametrize("n_angles", [8, 7])
    def test_row_swaps_inside_a_node_are_applied(self, n_angles):
        _, op = rte_operator(n_angles)
        rolled = node_rows_rolled(op, n_angles)
        solver = factorize(rolled, n_angles)
        # every diagonal block D_ii needs getrf's row swaps to be inverted
        for block in np.linalg.inv(solver._lu.dinv):
            assert not np.array_equal(lapack_pivots(block), np.arange(n_angles))
        b = np.random.Generator(np.random.Philox(73)).standard_normal((op.shape[0], 5))
        x, xt = solve_both(solver, b)
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(rolled), b)) <= 1e-12
        assert relative_gap(xt, spla.spsolve(sp.csc_matrix(rolled.T), b)) <= 1e-12

    @pytest.mark.parametrize("n_angles, eps1, g", block_cases())
    @pytest.mark.parametrize("rolled", [False, True], ids=["in-order", "rows-rolled"])
    def test_float32_blocks_keep_their_type_and_land_near_spsolve(self, n_angles, eps1, g,
                                                                   rolled):
        op = two_photon_jacobian(n_angles) if eps1 is None else rte_operator(n_angles, eps1, g)[1]
        op = node_rows_rolled(op, n_angles) if rolled else op
        solver = factorize(op, n_angles)
        b = np.random.Generator(np.random.Philox(79)).standard_normal((op.shape[0], 33))
        for solve, a in ((solver.solve, op), (solver.solve_transpose, op.T)):
            x = solve(b.astype(np.float32))
            assert x.dtype == np.float32
            want = spla.spsolve(sp.csc_matrix(a), b)
            assert relative_gap(x.astype(float), want) <= 1e-5

    def test_superlu_solves_a_float32_block_in_float64_and_keeps_its_type(self):
        _, op = rte_operator(7)
        solver = factorize(op)
        b = np.random.Generator(np.random.Philox(83)).standard_normal((op.shape[0], 5))
        for solve, a in ((solver.solve, op), (solver.solve_transpose, op.T)):
            x = solve(b.astype(np.float32))
            assert x.dtype == np.float32
            assert relative_gap(x.astype(float), spla.spsolve(sp.csc_matrix(a), b)) <= 1e-6

    def test_the_factor_keeps_its_norm_and_inverse_norm_estimate(self):
        _, op = rte_operator(8)
        solver = factorize(op, 8)
        assert solver.norm == spla.norm(op, 1)
        exact = np.abs(np.linalg.inv(op.toarray())).sum(axis=0).max()
        assert 0.3 * exact <= solver.inverse_norm <= exact * (1 + 1e-12)

    @pytest.mark.parametrize("pivoting", [False, True])
    def test_factors_reproduce_the_permuted_operator(self, pivoting):
        _, op = rte_operator(7)
        if pivoting:
            op = node_rows_rolled(op, 7)
        lu = factorize(op, 7)._lu
        o = lu.order
        np.testing.assert_array_equal(o, block_ordering(op, 7))
        ordered = sp.csr_matrix(op)[o][:, o]
        lower, upper = lu.L, lu.U
        assert lower.format == upper.format == "csc"
        # U's diagonal blocks hold D^-1 in place of its identity blocks
        assert lu.dinv.shape == (op.shape[0] // 7, 7, 7)
        blocks = sp.block_diag(list(lu.dinv), format="csc")
        d = sp.block_diag(list(np.linalg.inv(lu.dinv)), format="csc")
        unit_upper = upper - blocks + sp.identity(op.shape[0])
        assert abs(lower @ d @ unit_upper - ordered).max() <= 1e-12 * abs(ordered).max()
        np.testing.assert_array_equal(lower.diagonal(), 1.0)
        assert sp.triu(lower, 1).nnz == 0
        node = np.arange(op.shape[0]) // 7
        coo = upper.tocoo()
        assert np.all(node[coo.row] <= node[coo.col])
        assert lower.nnz + upper.nnz - op.shape[0] == lu.nnz
        assert lu.shape == op.shape

    def test_duplicate_entries_are_rejected_before_any_work(self, monkeypatch):
        # its scatter would keep one half of each entry; factorize sums them first
        _, op = rte_operator(7)
        monkeypatch.setattr(linalg, "_node_graph", None)
        with pytest.raises(InvalidArgument, match="canonical CSR"):
            NodeBlockLU(entries_split_in_halves(op), 7)

    def test_a_node_size_that_does_not_divide_the_unknowns_is_rejected(self, monkeypatch):
        monkeypatch.setattr(linalg, "NodeBlockLU", None)  # refused before any work
        with pytest.raises(InvalidArgument, match="nodes of 4"):
            factorize(sp.identity(6, format="csr"), 4)

    @pytest.mark.parametrize("node_size", [0, -2])
    def test_a_node_size_below_one_is_rejected_before_any_work(self, node_size, monkeypatch):
        monkeypatch.setattr(linalg.spla, "splu", None)
        monkeypatch.setattr(linalg, "NodeBlockLU", None)
        with pytest.raises(InvalidArgument, match=f"nodes of {node_size}"):
            factorize(sp.identity(6, format="csr"), node_size)

    def test_the_operator_is_read_in_place_not_permuted(self, monkeypatch):
        # only the node graph is indexed by the order; the operator's CSR
        # arrays are read through the nodes' positions
        _, op = rte_operator(8)
        expected = factorize(op, 8)._lu
        indexed = []
        getitem = sp.csr_matrix.__getitem__

        def recording(self, key):
            indexed.append(self.shape)
            return getitem(self, key)

        monkeypatch.setattr(sp.csr_matrix, "__getitem__", recording)
        lu = factorize(op, 8)._lu
        nodes = op.shape[0] // 8
        assert indexed and set(indexed) <= {(nodes, nodes)}
        for name in ("dinv", "c_index", "c_cols", "u_index", "u_rows"):
            got, want = getattr(lu, name), getattr(expected, name)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_a_block_is_two_half_sweeps_in_float64_one_in_float32_on_the_calling_thread(
            self, monkeypatch):
        _, op = rte_operator(8)
        solver = factorize(op, 8)
        seen = []
        solve = NodeBlockLU.solve

        def recording(self, b, trans="N", overwrite_b=False):
            seen.append((b.shape[1], trans, threading.get_ident()))
            return solve(self, b, trans, overwrite_b)

        monkeypatch.setattr(NodeBlockLU, "solve", recording)
        solve_both(solver, np.ones((solver.n, 101)))
        solve_both(solver, np.ones((solver.n, 101), dtype=np.float32))
        t = threading.get_ident()
        assert seen == [(50, "N", t), (51, "N", t), (50, "T", t), (51, "T", t),
                        (101, "N", t), (101, "T", t)]


def dense_block_entries(op, k):
    """The entries the block factor counts before its numeric work: its blocks, were
    they dense."""
    o = block_ordering(op, k)
    upper = linalg._node_fill(linalg._node_graph(sp.csr_matrix(op)[o][:, o], k))
    return k * k * (op.shape[0] // k + 2 * sum(u.size for u in upper))


class TestFillGuard:
    def test_a_factor_larger_than_the_address_space_is_refused_before_it_is_built(
            self, monkeypatch):
        _, op = rte_operator(8)
        entries = dense_block_entries(op, 8)
        monkeypatch.setattr(linalg, "address_space_limit", lambda: 8 * entries - 1)
        monkeypatch.setattr(linalg.lapack, "dgetrf", None)  # no numeric work may start
        with pytest.raises(ProblemTooLarge, match=f"{entries:,} float64 entries.*"
                                                  f"limit of {8 * entries - 1:,} bytes"):
            factorize(op, 8)

    @pytest.mark.parametrize("limit", [None, "exact"])
    def test_a_factor_within_the_limit_is_built(self, monkeypatch, limit):
        _, op = rte_operator(8)
        entries = dense_block_entries(op, 8)
        monkeypatch.setattr(linalg, "address_space_limit",
                            lambda: None if limit is None else 8 * entries)
        assert factorize(op, 8).nnz <= entries

    def test_the_limit_is_read_from_the_process(self, monkeypatch):
        monkeypatch.setattr(linalg.resource, "getrlimit",
                            lambda which: (linalg.resource.RLIM_INFINITY,) * 2)
        assert linalg.address_space_limit() is None
        monkeypatch.setattr(linalg.resource, "getrlimit", lambda which: (1 << 30, 1 << 31))
        assert linalg.address_space_limit() == 1 << 30


def reciprocal_case(name, ordered=False):
    """An operator and its node size: an exactly symmetric elliptic operator, or a
    transport operator, reciprocal with an even angle count and not with an odd one.

    ``ordered`` gives transport nodes of its angles, as ``ProblemSetup.factorize``
    does; otherwise the node size is 1, SuperLU's.
    """
    if name == "elliptic":
        return assemble_elliptic(Grid2D(12), EllipticMedium(0.0625)), 1
    pg = PhaseGrid(Grid2D(8), 8 if name == "rte-even" else 7)
    op = assemble_rte(pg, RteCoefficients(0.25, 0.5, 0.7))
    return op, pg.n_angles if ordered else 1


def cases(*names):
    """(name, ordered) parameters: each name as SuperLU orders it, with the name as id,
    and each transport name in node blocks of its angles, id ``<name>-ordered``."""
    return ([pytest.param(name, False, id=name) for name in names]
            + [pytest.param(name, True, id=f"{name}-ordered")
               for name in names if name.startswith("rte")])


class TestReciprocalTranspose:
    @pytest.mark.parametrize("name", ["rte-even", "rte-odd", "elliptic"])
    @pytest.mark.parametrize("cols", [None, 4])
    def test_transpose_solve_matches_spsolve(self, name, cols):
        op, _ = reciprocal_case(name)
        solver = factorize(op)
        rng = np.random.Generator(np.random.Philox(17))
        shape = (op.shape[0],) if cols is None else (op.shape[0], cols)
        b = rng.standard_normal(shape)
        x = solver.solve_transpose(b)
        assert x.shape == b.shape
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(op.T), b)) <= 1e-12

    def test_odd_angles_keep_superlus_transposed_solve(self, monkeypatch):
        # no direction of an odd angle count has a reverse on the grid; the
        # unordered operator goes to SuperLU, whose own "T" solves it
        op, node_size = reciprocal_case("rte-odd")
        assert PhaseGrid(Grid2D(8), 7).reversal() is None
        solver = factorize(op, node_size)
        assert isinstance(solver._lu, spla.SuperLU)
        seen = []
        lu = solver._lu

        class Recording:
            def solve(self, b, trans="N", **kwargs):
                seen.append(trans)
                return lu.solve(b, trans=trans, **kwargs)

        solver._lu = Recording()
        b = np.random.Generator(np.random.Philox(29)).standard_normal(op.shape[0])
        x = solver.solve_transpose(b)
        assert seen == ["T"]
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(op.T), b)) <= 1e-12

    def test_transpose_solve_bypasses_the_public_solve(self, monkeypatch):
        op, _ = reciprocal_case("rte-even")
        solver = factorize(op)
        b = np.arange(1.0, op.shape[0] + 1)
        expected = spla.spsolve(sp.csc_matrix(op.T), b)

        def refuse(self, b):
            raise AssertionError("solve_transpose went through FactorizedSolver.solve")

        monkeypatch.setattr(FactorizedSolver, "solve", refuse)
        assert relative_gap(solver.solve_transpose(b), expected) <= 1e-12

    def test_nonsymmetric_matrix_is_not_its_own_reversal(self):
        a = sp.csc_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert reciprocity_defect(a, np.array([1, 0])) == 2

    @pytest.mark.parametrize("name, ordered, calls", [
        ("elliptic", False, [(25, "N")] * 4),
        ("elliptic-perturbed", False, [(25, "T")] * 4),
        ("rte-even", False, [(25, "T")] * 4),
        ("rte-even", True, [(50, "T")] * 2),
    ], ids=["symmetric", "symmetric-but-one-entry", "unordered", "node-blocks"])
    def test_transposed_solve_runs_the_factors_own_sweep(self, name, ordered, calls):
        # SuperLU solves "T" one column at a time, so an exactly symmetric
        # operator runs its chunks "N"; the node-block factor sweeps "T", a
        # float64 block in two column halves
        if name == "elliptic-perturbed":  # one entry off by one ulp is not symmetric
            op = sp.csr_matrix(reciprocal_case("elliptic")[0], copy=True)
            j = op.indices[op.indptr[0]:op.indptr[1]].max()  # a neighbour of node 0
            op[0, j] = np.nextafter(op[0, j], 0.0)
            node_size = 1
        else:
            op, node_size = reciprocal_case(name, ordered)
        solver = factorize(op, node_size)
        seen = []
        lu = solver._lu

        class Recording:
            order = getattr(lu, "order", None)  # the node-block factor's, gathered by

            def solve(self, b, trans="N", **kwargs):
                seen.append((b.shape[1], trans))
                return lu.solve(b, trans=trans, **kwargs)

        solver._lu = Recording()
        b = np.random.Generator(np.random.Philox(19)).standard_normal((solver.n, 100))
        x = solver.solve_transpose(b)
        assert seen == calls
        assert relative_gap(x, spla.spsolve(sp.csc_matrix(op.T), b)) <= 1e-12


def solve_both(solver, b):
    return solver.solve(b), solver.solve_transpose(b)


class FailingFactor:
    """Stands in for the SuperLU object; its third solve raises."""

    def __init__(self, lu):
        self.lu = lu
        self.calls = 0

    def solve(self, b, trans="N"):
        self.calls += 1
        if self.calls == 3:
            raise MemoryError("chunk 3 out of memory")
        return self.lu.solve(b, trans=trans)


class TestChunkedSolves:
    @pytest.mark.parametrize("name, ordered", cases("rte-even", "rte-odd", "elliptic"))
    @pytest.mark.parametrize("cols", [None, 1, 31, 32, 33, 100])
    def test_blocks_match_column_by_column_solves(self, name, ordered, cols):
        solver = factorize(*reciprocal_case(name, ordered))
        rng = np.random.Generator(np.random.Philox(29))
        b = rng.standard_normal((solver.n,) if cols is None else (solver.n, cols))
        x, xt = solve_both(solver, b)
        assert x.shape == xt.shape == b.shape
        columns = b[:, None] if cols is None else b
        x, xt = x.reshape(columns.shape), xt.reshape(columns.shape)
        # the node-block factor is of L[o][:, o], so both its solves act on the
        # ordered unknowns; the factor's own one-column solves, SuperLU's or the
        # node-block sweeps, are the oracle, its "T" solve too where an exactly
        # symmetric operator's blocks run "N"
        o = np.arange(solver.n) if solver.node_size == 1 else solver._lu.order
        for j in range(columns.shape[1]):
            assert relative_gap(x[o, j], solver._lu.solve(columns[o, j])) <= 1e-14
            assert relative_gap(xt[o, j],
                                solver._lu.solve(columns[o, j], trans="T")) <= 1e-14

    @pytest.mark.parametrize("cols, widths", [(100, [25] * 4), (330, [30] * 11),
                                              (33, [16, 17]), (1, [1]), (32, [32]),
                                              (64, [32, 32]), (65, [21, 22, 22])])
    def test_chunks_are_fixed_width_and_run_on_the_calling_thread(self, cols, widths):
        # the split depends on the column count alone
        solver = factorize(*reciprocal_case("rte-even"))
        seen = []
        lu = solver._lu

        class Recording:
            def solve(self, b, trans="N"):
                seen.append((b.shape[1], threading.get_ident()))
                return lu.solve(b, trans=trans)

        solver._lu = Recording()
        before = threading.active_count()
        solver.solve(np.ones((solver.n, cols)))
        assert threading.active_count() == before
        assert sorted(w for w, _ in seen) == widths
        assert max(widths) <= SOLVE_CHUNK
        assert {t for _, t in seen} == {threading.get_ident()}

    @pytest.mark.parametrize("transpose", [False, True])
    def test_an_error_in_a_chunk_reaches_the_caller(self, transpose):
        solver = factorize(*reciprocal_case("rte-odd"))
        solver._lu = FailingFactor(solver._lu)
        before = threading.active_count()
        solve = solver.solve_transpose if transpose else solver.solve
        with pytest.raises(MemoryError, match="chunk 3"):
            solve(np.ones((solver.n, 100)))
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["rte-even", "rte-odd", "elliptic"])
    @pytest.mark.parametrize("cols", [33, 330])
    def test_chunks_solve_what_one_call_on_the_whole_block_solves(self, name, cols,
                                                                   monkeypatch):
        # chunks are for speed: one SuperLU call on the whole block solves the
        # same system, bitwise on the symmetric elliptic operator; the bits of
        # a nonsymmetric factor's "N" solve may depend on the chunk's width
        solver = factorize(*reciprocal_case(name))
        widths = []
        lu = solver._lu

        class Recording:
            def solve(self, b, trans="N"):
                widths.append(b.shape[1])
                return lu.solve(b, trans=trans)

        solver._lu = Recording()
        b = np.random.Generator(np.random.Philox(31)).standard_normal((solver.n, cols))
        chunked = solve_both(solver, b)
        assert len(widths) == 2 * -(-cols // SOLVE_CHUNK) and max(widths) <= SOLVE_CHUNK
        widths.clear()
        monkeypatch.setattr(linalg, "SOLVE_CHUNK", cols)
        whole = solve_both(solver, b)
        assert widths == [cols, cols]
        for x, y in zip(chunked, whole):
            if name == "elliptic":
                assert x.tobytes() == y.tobytes()
            else:
                assert relative_gap(x, y) <= 1e-14


class TestQrThin:
    def test_full_rank_columns_stay(self):
        rng = np.random.Generator(np.random.Philox(0))
        a = rng.normal(size=(10, 4))
        q = qr_thin(a)
        assert q.shape == (10, 4)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        # span is preserved: projecting a onto q loses nothing
        np.testing.assert_allclose(q @ (q.T @ a), a, atol=1e-12)

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]),
        np.zeros((4, 2)),
    ], ids=["dependent", "zero"])
    def test_degenerate_block_keeps_every_column_orthonormal_silently(self, a):
        # rank is read off the sketch's small SVD, not here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = qr_thin(a)
        assert q.shape == a.shape
        np.testing.assert_allclose(q.T @ q, np.eye(a.shape[1]), atol=1e-14)

    def test_empty_input_passes_through(self):
        q = qr_thin(np.zeros((4, 0)))
        assert q.shape == (4, 0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            qr_thin(np.ones(3))


class TestQrFactors:
    # blocks of up to QR_BLOCKED columns take geqrt's compact WY form, wider
    # ones geqrf and orgqr; either way Q R is numpy's QR up to the signs of
    # Q's columns
    @pytest.mark.parametrize("shape, wy", [((4840, 100), True), ((300, QR_BLOCKED), True),
                                           ((300, QR_BLOCKED + 1), False), ((961, 330), False),
                                           ((12, 30), True)])
    def test_factors_are_numpys_and_q_is_formed_in_place(self, shape, wy, monkeypatch):
        calls = []
        geqrt = scipy.linalg.lapack.dgeqrt
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt",
                            lambda *args, **kwargs: calls.append(1) or geqrt(*args, **kwargs))
        a = np.random.Generator(np.random.Philox(75)).standard_normal(shape)
        block = np.asfortranarray(a)
        q, r = qr_factors(block)
        assert bool(calls) == wy
        assert np.shares_memory(q, block)
        q0, r0 = np.linalg.qr(a)
        signs = np.sign(np.diag(r)) * np.sign(np.diag(r0))
        np.testing.assert_allclose(q * signs, q0, atol=1e-13)
        np.testing.assert_allclose(r * signs[:, None], r0, atol=1e-12 * np.abs(r0).max())
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-14)
        assert np.allclose(np.tril(r, -1), 0.0, atol=0.0)


class TestLuBasis:
    @pytest.mark.parametrize("a", [
        np.zeros((5, 3)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 1.0], [3.0, 6.0, 0.0], [4.0, 8.0, 2.0]]),
    ], ids=["zero", "dependent"])
    def test_degenerate_block_keeps_full_column_rank_silently(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = lu_basis(a.copy())
        assert b.shape == a.shape
        assert np.all(np.isfinite(b))
        assert np.linalg.matrix_rank(b) == a.shape[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_range_contains_the_input_range(self, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        a = rng.normal(size=(40, 6))
        a[:, 5] = a[:, 0] - 2.0 * a[:, 3]  # one exactly dependent column
        b = lu_basis(a.copy())
        coeffs = np.linalg.lstsq(b, a, rcond=None)[0]
        assert np.linalg.norm(b @ coeffs - a) <= 1e-12 * np.linalg.norm(a)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            lu_basis(np.ones(3))

    def test_a_float32_block_is_factored_in_float32_in_place(self):
        # the transport sketch's shape, 4,840 x 100: sgetrf and slaswp, no copy
        a = np.random.Generator(np.random.Philox(2)).standard_normal((4840, 100))
        block = np.asfortranarray(a, dtype=np.float32)
        b = lu_basis(block)
        assert b.dtype == np.float32 and np.shares_memory(b, block)
        expected = lu_basis(a)
        assert np.linalg.norm(b - expected) <= 1e-6 * np.linalg.norm(expected)


class TestSvdDense:
    def test_diagonal_matrix(self):
        u, s, v = svd_dense(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, np.diag([3.0, 1.0]), atol=1e-14)

    def test_values_match_gram_eigenvalues(self):
        rng = np.random.Generator(np.random.Philox(7))
        a = rng.normal(size=(6, 4))
        _, s, _ = svd_dense(a)
        gram_eigs = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        np.testing.assert_allclose(s**2, gram_eigs, rtol=1e-10, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.Generator(np.random.Philox(11))
        a = rng.normal(size=(5, 7))
        u, s, v = svd_dense(a)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-12)

    def test_values_sorted_descending(self):
        rng = np.random.Generator(np.random.Philox(13))
        a = rng.normal(size=(9, 9))
        _, s, _ = svd_dense(a)
        assert np.all(np.diff(s) <= 0)

    def test_nan_input_raises_the_package_error(self):
        a = np.full((3, 3), np.nan)
        with pytest.raises(SvdFailure, match="did not converge"):
            svd_dense(a)


class TestRSvd:
    # Chan's R-SVD of a tall a against numpy's SVD of the wide a^T, whose LQ
    # path reduces it to the same k x k triangle
    @pytest.mark.parametrize("shape", [(900, 60), (961, 330), (40, 40)])
    def test_values_and_vectors_are_the_wide_transposes(self, shape):
        a = np.random.Generator(np.random.Philox(67)).standard_normal(shape)
        _, s0, vt0 = np.linalg.svd(a.T, full_matrices=False)
        s, v = r_svd(a, shape[1], 0.0)
        assert np.all(np.abs(s - s0) <= 1e-13 * s0[0])
        assert v.shape == shape and v.flags.f_contiguous
        np.testing.assert_allclose(v * np.sign(np.sum(v * vt0.T, axis=0)), vt0.T, atol=1e-9)
        np.testing.assert_allclose(v.T @ v, np.eye(shape[1]), atol=1e-12)

    def test_only_the_kept_vectors_are_formed(self):
        # rank caps them, and so does the relative floor: 1e-20 falls below 1e-14
        rng = np.random.Generator(np.random.Philox(69))
        basis = np.linalg.qr(rng.standard_normal((60, 3)))[0]
        a = basis * [2.0, 1.0, 1e-20]
        assert r_svd(a, 3, 1e-14)[1].shape == (60, 2)
        assert r_svd(a, 1, 1e-14)[1].shape == (60, 1)
        s, v = r_svd(a, 3, 0.0)
        np.testing.assert_allclose(np.abs(np.sum(v[:, :2] * basis[:, :2], axis=0)), 1.0)
        np.testing.assert_allclose(s[:2], [2.0, 1.0])

    def test_in_place_runs_the_qr_in_the_block_and_is_bitwise_copying(self):
        a = np.random.Generator(np.random.Philox(71)).standard_normal((300, 40))
        copied = r_svd(a, 30, 1e-14)
        block = np.asfortranarray(a)
        s, v = r_svd(block, 30, 1e-14, overwrite_a=True)
        assert not np.array_equal(block, a)  # destroyed: Q_b was formed in it
        assert copied[0].tobytes() == s.tobytes() and copied[1].tobytes() == v.tobytes()

    def test_a_wide_matrix_is_refused_and_a_nan_is_the_package_error(self):
        with pytest.raises(DimensionMismatch, match="tall"):
            r_svd(np.ones((3, 5)), 3, 0.0)
        with pytest.raises(SvdFailure, match="did not converge"):
            r_svd(np.full((5, 3), np.nan), 3, 0.0)


class TestNodeBlockGather:
    @pytest.mark.parametrize("method", ["solve", "solve_transpose"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_in_place_solve_gathers_half_a_float64_block(self, method, dtype):
        # a float64 block is gathered in two column halves, a float32 one whole:
        # either way the copy is half the bytes of a float64 block, and the
        # sweeps' GEMMs add a few node rows' products (0.3 of it here); a
        # whole float64 gather would add a full block
        _, op = rte_operator(40)
        solver = factorize(op, 40)
        b = np.random.Generator(np.random.Philox(73)).standard_normal((solver.n, 100))
        block = np.asfortranarray(b, dtype=dtype)
        half = b.nbytes / 2
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = getattr(solver, method)(block, overwrite_b=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert out is block
        assert half <= peak - start <= 1.5 * half
        a = op if method == "solve" else op.T
        want = spla.spsolve(sp.csc_matrix(a), b)
        assert relative_gap(out.astype(float), want) <= (1e-12 if dtype == np.float64 else 1e-5)


class TestOverwrite:
    @pytest.mark.parametrize("name, ordered", cases("elliptic", "rte-even", "rte-odd"))
    @pytest.mark.parametrize("cols", [None, 1, 33, 100, 330])
    @pytest.mark.parametrize("method", ["solve", "solve_transpose"])
    def test_in_place_solve_is_bitwise_the_copying_solve(self, name, ordered, cols, method):
        # a symmetric operator's transposed solve through SuperLU's "N",
        # SuperLU's own "T" for transport, and each transport case in its
        # block ordering, swept by the node-block factor; 330 columns are
        # 11 SuperLU chunks written back into the caller's own block
        solver = factorize(*reciprocal_case(name, ordered))
        rng = np.random.Generator(np.random.Philox(37))
        b = rng.standard_normal((solver.n,) if cols is None else (solver.n, cols))
        before = b.copy()
        copied = getattr(solver, method)(b)
        assert np.array_equal(b, before)
        block = np.asfortranarray(b)
        in_place = getattr(solver, method)(block, overwrite_b=True)
        assert in_place is block
        assert copied.tobytes() == in_place.tobytes()

    def test_a_row_ordered_block_is_copied_even_when_overwrite_is_allowed(self):
        solver = factorize(*reciprocal_case("rte-even"))
        b = np.random.Generator(np.random.Philox(39)).standard_normal((solver.n, 40))
        before = b.copy()
        x = solver.solve_transpose(b, overwrite_b=True)
        assert np.array_equal(b, before)
        assert x.tobytes() == solver.solve_transpose(before).tobytes()

    @pytest.mark.parametrize("shape, zero_column", [((60, 7), None), ((60, 7), 2),
                                                    ((9, 9), None), ((5, 8), None)])
    def test_lu_basis_is_bitwise_scipys_permuted_factor(self, shape, zero_column):
        a = np.random.Generator(np.random.Philox(47)).standard_normal(shape)
        if zero_column is not None:
            a[:, zero_column] = 0.0  # getrf meets an exact zero pivot there
        expected = scipy.linalg.lu(a, permute_l=True)[0]
        block = np.asfortranarray(a)
        b = lu_basis(block)
        assert np.shares_memory(b, block)
        assert b.tobytes() == np.asfortranarray(expected).tobytes()

    @pytest.mark.parametrize("dependent", [False, True])
    def test_in_place_qr_is_bitwise_the_copying_qr(self, dependent):
        a = np.random.Generator(np.random.Philox(53)).standard_normal((50, 8))
        if dependent:
            a[:, 6] = a[:, 1] + a[:, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            copied = qr_thin(a)
            block = np.asfortranarray(a)
            q = qr_thin(block)
        assert q.shape[1] == 8
        assert np.shares_memory(q, block)
        assert copied.tobytes() == q.tobytes()

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40), (15, 15)])
    def test_svd_is_bitwise_numpys_and_in_place_is_bitwise_copying(self, shape):
        a = np.random.Generator(np.random.Philox(59)).standard_normal(shape)
        u0, s0, vt0 = np.linalg.svd(a, full_matrices=False)
        u, s, v = svd_dense(a)
        assert np.array_equal(u, u0) and np.array_equal(s, s0) and np.array_equal(v, vt0.T)
        u2, s2, v2 = svd_dense(np.asfortranarray(a), overwrite_a=True)
        assert all(x.tobytes() == y.tobytes() for x, y in ((u, u2), (s, s2), (v, v2)))

    # (60, 900) takes gesdd's LQ path, as the sketch's Q^T A does; (600, 600)
    # is blocked like the dense oracle's SVD.  numpy and scipy each load their
    # own OpenBLAS, which may split threaded kernels differently, so numpy is
    # matched to roundoff here and to the bit only at one BLAS thread.
    @pytest.mark.parametrize("shape", [(60, 900), (600, 600)])
    def test_blocked_svd_matches_numpys_and_in_place_is_bitwise_copying(self, shape):
        a = np.random.Generator(np.random.Philox(61)).standard_normal(shape)
        u0, s0, vt0 = np.linalg.svd(a, full_matrices=False)
        u, s, v = svd_dense(a)
        assert np.all(np.abs(s - s0) <= 1e-12 * s0[0])
        signs = np.sign(np.sum(v * vt0.T, axis=0))
        np.testing.assert_allclose(v * signs, vt0.T, atol=1e-9)
        np.testing.assert_allclose(u * signs, u0, atol=1e-9)
        u2, s2, v2 = svd_dense(np.asfortranarray(a), overwrite_a=True)
        assert all(x.tobytes() == y.tobytes() for x, y in ((u, u2), (s, s2), (v, v2)))
