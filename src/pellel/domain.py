"""Strictly convex domains, grids, weights, and boundary quadrature.

A domain is G = {rho < 0} for a smooth defining function rho; out of the
box rho(x) = sum((x_j - c_j)**2 / a_j**2) - 1 (balls and axis-aligned
ellipsoids).  Grids are cell-centered with nodes on the global lattice
(k + 1/2) * h, restricted to a padded bounding box of G; the padding
keeps every stencil reference inside the box.  Quadrature over G is the
midpoint rule on nodes with rho < -margin.

Point batches are stacked arrays of shape (N, ...): evaluators return
shape (...) for scalars, (N, ...) for gradients, (N, N, ...) for
Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResolutionError, UnsupportedDomainError, ValidationError


@dataclass(frozen=True)
class Domain:
    """Bounded strictly convex domain G = {rho < 0}."""

    kind: str
    dim: int
    semi_axes: tuple[float, ...]
    center: tuple[float, ...]

    @staticmethod
    def ball(radius: float, center=None, dim: int = 2) -> "Domain":
        if radius <= 0:
            raise ValidationError("radius must be positive")
        if center is None:
            center = (0.0,) * dim
        center = tuple(float(c) for c in center)
        return Domain("ball", len(center), (float(radius),) * len(center), center)

    @staticmethod
    def ellipsoid(semi_axes, center=None) -> "Domain":
        semi_axes = tuple(float(a) for a in semi_axes)
        if any(a <= 0 for a in semi_axes):
            raise ValidationError("semi-axes must be positive")
        if center is None:
            center = (0.0,) * len(semi_axes)
        center = tuple(float(c) for c in center)
        if len(center) != len(semi_axes):
            raise ValidationError("center and semi-axes dimension mismatch")
        return Domain("ellipsoid", len(semi_axes), semi_axes, center)

    def _shifted(self, points):
        c = np.asarray(self.center, dtype=float).reshape((self.dim,) + (1,) * (np.ndim(points) - 1))
        return np.asarray(points, dtype=float) - c

    def rho(self, points):
        y = self._shifted(points)
        a2 = np.asarray(self.semi_axes, dtype=float).reshape(y.shape[0:1] + (1,) * (y.ndim - 1)) ** 2
        return np.sum(y * y / a2, axis=0) - 1.0

    def grad_rho(self, points):
        y = self._shifted(points)
        a2 = np.asarray(self.semi_axes, dtype=float).reshape(y.shape[0:1] + (1,) * (y.ndim - 1)) ** 2
        return 2.0 * y / a2

    def hess_rho(self, points):
        shape = np.shape(points)[1:]
        h = np.zeros((self.dim, self.dim) + shape)
        for j, a in enumerate(self.semi_axes):
            h[j, j] = 2.0 / a**2
        return h

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        a = np.asarray(self.semi_axes)
        return c - a, c + a

    def validate_regularity(self, n_samples: int = 128, seed: int = 0) -> None:
        """Sampled checks: Hessian of rho positive definite near the
        boundary and grad rho nonvanishing on a small collar."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(self.dim, n_samples))
        u /= np.linalg.norm(u, axis=0)
        pts = np.asarray(self.center)[:, None] + np.asarray(self.semi_axes)[:, None] * u
        eig = np.linalg.eigvalsh(np.moveaxis(self.hess_rho(pts), -1, 0))
        if eig.min() <= 0:
            raise ValidationError("defining function is not strictly convex on the boundary")
        g = self.grad_rho(pts)
        if np.linalg.norm(g, axis=0).min() <= 0:
            raise ValidationError("grad rho vanishes on the boundary")


@dataclass(frozen=True)
class Weight:
    """Smooth convex weight phi with analytic gradient and Hessian."""

    kind: str
    phi: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None

    @staticmethod
    def quadratic(matrix) -> "Weight":
        """phi(x) = x^T A x for a symmetric positive semidefinite A."""
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("quadratic weight needs a square matrix")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, abs(a).max())):
            raise ValidationError("quadratic weight matrix must be symmetric")
        if np.linalg.eigvalsh(a).min() < -1e-12 * max(1.0, abs(a).max()):
            raise ValidationError("quadratic weight must be nonnegative")

        def phi(points):
            p = np.asarray(points, dtype=float)
            return np.einsum("i...,ij,j...->...", p, a, p)

        def grad(points):
            p = np.asarray(points, dtype=float)
            return 2.0 * np.einsum("ij,j...->i...", a, p)

        def hess(points):
            shape = np.shape(points)[1:]
            return np.broadcast_to((2.0 * a).reshape(a.shape + (1,) * len(shape)),
                                   a.shape + shape).copy()

        return Weight("quadratic", phi, grad, hess, matrix=a)

    @staticmethod
    def abs2(dim: int) -> "Weight":
        """phi(x) = |x|**2; convexity constant 2 in every dimension."""
        w = Weight.quadratic(np.eye(dim))
        return Weight("abs2", w.phi, w.grad, w.hess, matrix=w.matrix)

    @staticmethod
    def zero(dim: int) -> "Weight":
        """Unweighted inner products (phi = 0).  Not strictly convex;
        rejected by estimate_c but valid for plain L2 quadrature."""
        w = Weight.quadratic(np.zeros((dim, dim)))
        return Weight("zero", w.phi, w.grad, w.hess, matrix=w.matrix)

    @staticmethod
    def custom(phi, grad, hess) -> "Weight":
        return Weight("custom", phi, grad, hess)


def _dilate(mask: np.ndarray) -> np.ndarray:
    """Dilation by one node along each axis (von Neumann neighborhood)."""
    out = mask.copy()
    for ax in range(mask.ndim):
        lo = tuple(slice(None) if i != ax else slice(None, -1) for i in range(mask.ndim))
        hi = tuple(slice(None) if i != ax else slice(1, None) for i in range(mask.ndim))
        out[lo] |= mask[hi]
        out[hi] |= mask[lo]
    return out


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform grid on a padded bounding box of the domain.

    interior     nodes with rho < -margin; carries all reported integrals
                 (midpoint weight h**N per node).
    mask_eq      interior dilated by one ring; where solvers impose their
                 equations.
    mask_dof     mask_eq dilated once more; where solver unknowns live and
                 the minimum-norm objective is measured.
    """

    domain: Domain
    h: float
    margin: float
    axes: tuple[np.ndarray, ...]
    coords: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    mask_eq: np.ndarray = field(repr=False)
    mask_dof: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def interior_count(self) -> int:
        return int(self.interior.sum())

    @property
    def boundary_adjacent(self) -> np.ndarray:
        """Interior nodes with at least one axis neighbor outside G."""
        return self.interior & _dilate(~self.interior)

    def compact(self, a: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """a (shape (k, *grid.shape)) on the mask's nodes: a C-contiguous
        (k, #mask nodes) array, nodes in C order."""
        return np.take(a.reshape(len(a), mask.size), np.flatnonzero(mask), axis=1)

    def expand(self, u: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Inverse of compact: the box array with u on the mask, 0 elsewhere."""
        out = np.zeros((len(u),) + mask.shape, dtype=u.dtype)
        out.reshape(len(u), mask.size)[:, np.flatnonzero(mask)] = u
        return out

    def weight_values(self, weight: Weight, mask: np.ndarray) -> np.ndarray:
        """exp(-phi) at the mask's nodes, in compact order."""
        return np.exp(-weight.phi(self.compact(self.coords, mask)))


def build_grid(domain: Domain, h: float, margin: float = 0.0, pad: int = 2) -> Grid:
    """Build the cell-centered grid for a domain at spacing h.

    Nodes sit on the global lattice (k + 1/2) * h so layouts at different
    h nest consistently.  Raises ResolutionError when no node is interior.
    """
    if h <= 0:
        raise ValidationError("grid spacing must be positive")
    if margin < 0:
        raise ValidationError("margin must be nonnegative")
    lo, hi = domain.bounding_box()
    axes = []
    for d in range(domain.dim):
        k0 = int(np.floor(lo[d] / h - 0.5)) - pad
        k1 = int(np.ceil(hi[d] / h - 0.5)) + pad
        axes.append((np.arange(k0, k1 + 1) + 0.5) * h)
    coords = np.stack(np.meshgrid(*axes, indexing="ij"))
    interior = domain.rho(coords) < -margin
    if not interior.any():
        raise ResolutionError(
            f"no interior nodes for h={h}; refine the grid or shrink the margin")
    mask_eq = _dilate(interior)
    mask_dof = _dilate(mask_eq)
    return Grid(domain, float(h), float(margin), tuple(axes), coords,
                interior, mask_eq, mask_dof)


def estimate_c(weight: Weight, domain: Domain, grid: Grid) -> float:
    """Convexity constant of the weight on G: the minimum over interior
    nodes of the smallest Hessian eigenvalue.  Rejects nonconvex weights."""
    pts = grid.compact(grid.coords, grid.interior)
    hess = weight.hess(pts)
    eig = np.linalg.eigvalsh(np.moveaxis(hess, (0, 1), (-2, -1)))
    c = float(eig.min())
    if c <= 0:
        raise ValidationError(f"weight is not uniformly convex on G (min eigenvalue {c})")
    return c


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Nodes on the boundary of G with weights for integrals against
    dS / |grad rho| (the natural surface measure of the defining function).

    weights are the dS/|grad rho| weights; ds gives plain surface-area
    weights, so ds.sum() approximates the surface measure of the boundary.
    """

    nodes: np.ndarray
    weights: np.ndarray
    grad_norm: np.ndarray

    @property
    def ds(self) -> np.ndarray:
        return self.weights * self.grad_norm


def boundary_quadrature(domain: Domain, m: int) -> BoundaryQuadrature:
    """Parametrized boundary quadrature for balls/ellipsoids in N = 2, 3.

    N = 2 uses the periodic trapezoid rule in the angle (spectrally
    accurate for smooth integrands); N = 3 uses Gauss-Legendre in the
    polar angle times a periodic trapezoid in azimuth.
    """
    if domain.kind not in ("ball", "ellipsoid"):
        raise UnsupportedDomainError(f"no boundary parametrization for {domain.kind}")
    a = np.asarray(domain.semi_axes)
    c = np.asarray(domain.center)
    if domain.dim == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = c[:, None] + np.stack([a[0] * np.cos(theta), a[1] * np.sin(theta)])
        speed = np.hypot(-a[0] * np.sin(theta), a[1] * np.cos(theta))
        ds = speed * (2.0 * np.pi / m)
    elif domain.dim == 3:
        m_theta = max(2, int(np.sqrt(m / 2.0)))
        m_phi = 2 * m_theta
        u, gl_w = np.polynomial.legendre.leggauss(m_theta)
        theta = np.arccos(u)
        phi = 2.0 * np.pi * np.arange(m_phi) / m_phi
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        st, ct = np.sin(th), np.cos(th)
        nodes = c[:, None] + np.stack([
            a[0] * st * np.cos(ph), a[1] * st * np.sin(ph), a[2] * ct]).reshape(3, -1)
        # |x_theta x x_phi| for the ellipsoid parametrization
        jac = st * np.sqrt((a[1] * a[2] * st * np.cos(ph)) ** 2
                           + (a[0] * a[2] * st * np.sin(ph)) ** 2
                           + (a[0] * a[1] * ct) ** 2)
        # leggauss weights absorb sin(theta) via u = cos(theta)
        w = (gl_w[:, None] / np.where(st > 0, st, 1.0)) * (2.0 * np.pi / m_phi)
        ds = (jac * w).reshape(-1)
    else:
        raise UnsupportedDomainError(
            f"boundary quadrature supports N = 2 or 3, got N = {domain.dim}")
    grad_norm = np.linalg.norm(domain.grad_rho(nodes), axis=0)
    return BoundaryQuadrature(nodes, ds / grad_norm, grad_norm)
