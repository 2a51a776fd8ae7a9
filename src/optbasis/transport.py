"""Steady radiative transport with Henyey-Greenstein scattering.

The model is v . grad_x u + (sigma_a + sigma_s) u = sigma_s K u + f on the
square with a discrete velocity circle.  Advection uses first-order upwind
differences with zero inflow from outside the domain; the scattering
average is (K u)(x, v_l) = (1 / n_angles) sum_l' K[l, l'] u(x, v_l'), with
the kernel rows normalized so that average equals one for constant input.

Unknown ordering is space-major: flat index = spatial_index * n_angles + l,
with the spatial index in the same x-major layout as the elliptic family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elliptic import kappa
from .exceptions import InvalidArgument
from .grids import PhaseGrid

# velocity components smaller than this are treated as exactly zero
_V_TOL = 1e-14


def hg_phase(mu, g):
    """Unnormalized Henyey-Greenstein phase value at scattering cosine mu."""
    denom = 1.0 + g * g - 2.0 * g * np.asarray(mu, dtype=float)
    return (1.0 - g * g) / denom ** 1.5


# a kernel that is not finite is reported once, as the InvalidArgument below, not as warnings
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def hg_kernel_matrix(g, n_angles):
    """Discretely normalized scattering matrix on the equispaced velocity circle.

    The matrix is an exact symmetric circulant: entry (l, l') depends only on
    the lag min(d, n_angles - d) with d = |l - l'|, and the whole matrix is
    divided by one scalar so that (1 / n_angles) sum_l' K[l, l'] = 1, making
    a constant-in-angle field invariant under the scattering average.
    Raises InvalidArgument for a g so close to 1 that the kernel is not finite.
    """
    if not 0.0 <= g < 1.0:
        raise InvalidArgument(f"anisotropy factor must be in [0, 1), got {g}")
    l = np.arange(n_angles)
    lag = np.minimum(l, n_angles - l)
    row = hg_phase(np.cos(2.0 * np.pi * lag / n_angles), g)
    row = row / (row.sum() / n_angles)
    if not np.isfinite(row).all():
        raise InvalidArgument(f"anisotropy factor g = {g!r} is too close to 1: the "
                              f"Henyey-Greenstein kernel on {n_angles} angles is not finite")
    return row[(l[None, :] - l[:, None]) % n_angles]


def sigma_s(x1, x2, eps1, eps2):
    """Scattering cross section: the elliptic medium amplified by 1 / eps1."""
    return kappa(x1, x2, eps2) / eps1


def sigma_a(x1, x2, eps1, eps2):
    """Absorption cross section, positive and oscillatory on scale eps2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    two_pi = 2.0 * np.pi
    t1 = np.sin(4.0 * x1 ** 2 * x2 ** 2)
    t2 = (1.1 + np.cos(two_pi * x1 / eps2)) / (1.1 + np.cos(two_pi * x2 / eps2))
    t3 = (1.1 + np.sin(np.pi * x2 / eps2)) / (1.1 + np.sin(np.pi * x1 / eps2))
    return eps1 * (1.0 + t1 + t2 + t3)


def sigma_b(x1, x2, eps1):
    """Two-photon absorption coefficient, smooth and O(eps1)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return 0.1 * eps1 * (2.0 + 0.5 * np.cos(x1) + 0.5 * np.sin(x2))


@dataclass(frozen=True)
class RteCoefficients:
    """Cross-section scales: eps1 sets the scattering regime, eps2 the medium scale."""

    eps1: float = 1.0
    eps2: float = 1.0
    g: float = 0.5


def _upwind_1d(n, h, positive):
    """First-order upwind difference with a zero ghost value at the inflow side."""
    if positive:
        return sp.diags([np.full(n, 1.0 / h), np.full(n - 1, -1.0 / h)],
                        offsets=[0, -1], format="csr")
    return sp.diags([np.full(n, -1.0 / h), np.full(n - 1, 1.0 / h)],
                    offsets=[0, 1], format="csr")


def _angle_diagonal(values, keep):
    """diag(values) over the angles with ``keep`` set, storing no zeros for the others."""
    idx = np.flatnonzero(keep)
    return sp.csr_matrix((values[idx], (idx, idx)), shape=(values.size, values.size))


def assemble_rte_from_fields(pg: PhaseGrid, sigma_a_values, sigma_s_values, kernel):
    """Assemble the transport operator from explicit coefficient samples.

    Advection is four Kronecker products, one per axis and velocity sign:
    the upwind difference along that axis times the diagonal of the
    velocity components with that sign.

    Parameters
    ----------
    pg : PhaseGrid
    sigma_a_values, sigma_s_values : arrays of length (m-1)^2
        Cross sections at the interior spatial nodes, x-major order.
    kernel : (n_angles, n_angles) array
        Normalized scattering matrix.
    """
    n = pg.spatial.n_per_dim
    h = pg.spatial.h
    n_v = pg.n_angles
    sa = np.asarray(sigma_a_values, dtype=float)
    ss = np.asarray(sigma_s_values, dtype=float)
    eye_n = sp.identity(n, format="csr")
    eye_v = sp.identity(n_v, format="csr")

    cos_t, sin_t = pg.velocities()
    terms = []
    for positive in (True, False):
        d = _upwind_1d(n, h, positive)
        for spatial, v in ((sp.kron(d, eye_n), cos_t), (sp.kron(eye_n, d), sin_t)):
            keep = v > _V_TOL if positive else v < -_V_TOL
            terms.append(sp.kron(spatial, _angle_diagonal(v, keep)))
    transport = sum(terms)

    collision = sp.kron(sp.diags(sa + ss), eye_v)
    scattering = sp.kron(sp.diags(ss), sp.csr_matrix(kernel) / n_v)
    return (transport + collision - scattering).tocsr()


def assemble_rte(pg: PhaseGrid, coeff: RteCoefficients):
    """Assemble the transport operator for the multiscale cross-section model."""
    x1, x2 = pg.spatial.interior_flat()
    sa = sigma_a(x1, x2, coeff.eps1, coeff.eps2)
    ss = sigma_s(x1, x2, coeff.eps1, coeff.eps2)
    kernel = hg_kernel_matrix(coeff.g, pg.n_angles)
    return assemble_rte_from_fields(pg, sa, ss, kernel)


def eval_source_rte(pg: PhaseGrid, scale=1.0):
    """Gaussian beam source centered in the domain and aimed along theta = 0."""
    length = np.float64(pg.spatial.length)  # its square overflows to inf, not OverflowError
    x1, x2 = pg.spatial.interior_flat()
    width = (length / 4.0) ** 2
    spatial = np.exp(-((x1 - length / 2.0) ** 2 + (x2 - length / 2.0) ** 2) / width)
    cos_t, sin_t = pg.velocities()
    angular = np.exp(-((cos_t - 1.0) ** 2 + sin_t ** 2) / 0.2 ** 2)
    return scale * np.outer(spatial, angular).ravel()
