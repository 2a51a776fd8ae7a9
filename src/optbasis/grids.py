"""Grid descriptors for the square domain and the phase (space x angle) setting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidArgument


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [0, L]^2 with Dirichlet-style interior unknowns.

    ``m_intervals`` cells per direction give (m_intervals - 1)^2 interior
    nodes.  Vectorization is x-major: the x index varies slowest, so the
    flat index of interior node (i, j) is (i - 1) * (m_intervals - 1) + (j - 1)
    with i, j = 1 .. m_intervals - 1.
    """

    m_intervals: int
    length: float = 0.5

    def __post_init__(self):
        if self.m_intervals < 2:
            raise InvalidArgument("need at least 2 intervals per direction")
        if self.length <= 0:
            raise InvalidArgument("domain length must be positive")

    @property
    def h(self) -> float:
        """Grid spacing, a numpy float: its extreme powers give inf or 0, not OverflowError."""
        return np.float64(self.length) / self.m_intervals

    @property
    def n_per_dim(self) -> int:
        return self.m_intervals - 1

    @property
    def n_interior(self) -> int:
        return self.n_per_dim ** 2

    def interior_1d(self) -> np.ndarray:
        """Interior node coordinates along one axis."""
        return self.h * np.arange(1, self.m_intervals)

    def interior_mesh(self):
        """Coordinate arrays (X1, X2) of shape (m-1, m-1), x-major layout."""
        x = self.interior_1d()
        return np.meshgrid(x, x, indexing="ij")

    def interior_flat(self):
        """Flattened coordinates (x1, x2) of all interior nodes in index order."""
        x1, x2 = self.interior_mesh()
        return x1.ravel(), x2.ravel()


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor grid of a spatial Grid2D with equispaced unit velocities.

    Angles are theta_l = 2 pi l / n_angles for l = 0 .. n_angles - 1.
    Phase-space unknowns are space-major: flat index = spatial_index * n_angles + l.
    For an even angle count, direction l + n_angles / 2 is the exact reverse
    of direction l, bit for bit.
    """

    spatial: Grid2D
    n_angles: int

    def __post_init__(self):
        if self.n_angles < 1:
            raise InvalidArgument("need at least one angle")

    @property
    def n_dofs(self) -> int:
        return self.spatial.n_interior * self.n_angles

    @property
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles

    def velocities(self):
        """Unit velocity components (cos theta_l, sin theta_l).

        With an even angle count the second half is the exact negation of
        the first, so v_{l + n_angles/2} = -v_l holds bit for bit rather than
        up to the rounding of cos(theta + pi).
        """
        th = self.theta
        cos_t, sin_t = np.cos(th), np.sin(th)
        if self.n_angles % 2 == 0:
            half = self.n_angles // 2
            cos_t[half:] = -cos_t[:half]
            sin_t[half:] = -sin_t[:half]
        return cos_t, sin_t

    def reversal(self):
        """Phase-space index permutation that reverses every direction, l -> l + n_angles/2.

        It is an involution.  Returns None for an odd angle count, where no
        direction has an exact reverse on the grid.
        """
        if self.n_angles % 2:
            return None
        angles = (np.arange(self.n_angles) + self.n_angles // 2) % self.n_angles
        offsets = self.n_angles * np.arange(self.spatial.n_interior)
        return (offsets[:, None] + angles[None, :]).ravel()
