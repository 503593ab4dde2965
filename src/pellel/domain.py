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

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ResolutionError, UnsupportedDomainError, ValidationError


def _semi_axes(values) -> tuple[float, ...]:
    """The semi-axes as floats; rho and its derivatives divide by their
    squares, which must be positive finite floats, and hess_rho holds
    2 / a**2, which must be finite."""
    axes = tuple(float(a) for a in values)
    if not all(a > 0 and 0 < a * a < math.inf and 2 / (a * a) < math.inf for a in axes):
        raise ValidationError(
            f"semi-axes {axes} must be positive, with squares a**2 and 2 / a**2 that are "
            "positive finite floats")
    return axes


@dataclass(frozen=True)
class Domain:
    """Bounded strictly convex domain G = {rho < 0}."""

    kind: str
    dim: int
    semi_axes: tuple[float, ...]
    center: tuple[float, ...]

    @staticmethod
    def ball(radius: float, center=None, dim: int | None = None) -> "Domain":
        """Ball of the given radius; dim defaults to len(center), or to 2
        without a center, and must match the center when both are given."""
        (a,) = _semi_axes((radius,))
        if center is None:
            center = (0.0,) * (2 if dim is None else dim)
        center = tuple(float(c) for c in center)
        if dim is not None and len(center) != dim:
            raise ValidationError(f"ball center {center} does not have dim = {dim} coordinates")
        return Domain("ball", len(center), (a,) * len(center), center)

    @staticmethod
    def ellipsoid(semi_axes, center=None) -> "Domain":
        semi_axes = _semi_axes(semi_axes)
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
        # y**2 / a**2 overflows only far outside G, so rho = +inf keeps such a node out
        with np.errstate(over="ignore"):
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

    def validate_regularity(self) -> None:
        """Sampled checks at 128 boundary points (seed 0): Hessian of rho
        positive definite near the boundary and grad rho nonvanishing on a
        small collar."""
        rng = np.random.default_rng(0)
        u = rng.normal(size=(self.dim, 128))
        u /= np.linalg.norm(u, axis=0)
        pts = np.asarray(self.center)[:, None] + np.asarray(self.semi_axes)[:, None] * u
        eig = np.linalg.eigvalsh(np.moveaxis(self.hess_rho(pts), -1, 0))
        if eig.min() <= 0:
            raise ValidationError("defining function is not strictly convex on the boundary")
        g = self.grad_rho(pts)
        # from the entries: a norm squares them, which can overflow
        if np.abs(g).max(axis=0).min() <= 0:
            raise ValidationError("grad rho vanishes on the boundary")


@dataclass(frozen=True)
class Weight:
    """Smooth convex weight phi with analytic gradient and Hessian; matrix
    is A for phi = x^T A x and None for a custom weight."""

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
            # two two-operand contractions: faster than one three-operand einsum
            return np.einsum("i...,i...->...", p, np.tensordot(a, p, 1))

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

    build_grid makes the three masks read-only.  Inside a sharing() block,
    which every solver opens, the node indices of each, the stencil tables
    between them, phi, exp(-phi) and the shifted exp(-phi) on each per
    weight, and the solvers' multigrid hierarchies are built once; the grid
    keeps none of them between blocks.
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

    def _own(self, mask: np.ndarray) -> str | None:
        """The name of the grid's own mask that mask is, if any."""
        for name in ("interior", "mask_eq", "mask_dof"):
            if mask is getattr(self, name):
                return name
        return None

    @contextmanager
    def sharing(self):
        """Inside this block, everything the grid derives from its own masks
        (node indices, stencil tables, phi and exp(-phi) per weight, and what
        the solvers key on them) is built once; outside it, and for any
        other mask, it is built on every call.
        Nested blocks share the outermost, which drops it all on exit, so a
        grid holds nothing between solves."""
        if "_shared" in self.__dict__:
            yield
            return
        self.__dict__["_shared"] = {}  # the dataclass is frozen
        try:
            yield
        finally:
            del self.__dict__["_shared"]

    def _derived(self, key: tuple, build, *args):
        """build(*args), read-only if an array.  Inside a sharing block it
        is built once per key, unless key names a mask that is not the
        grid's own (None), and kept with args, so that an object the key
        names by id stays alive, and its id unique, until the block exits."""
        shared = self.__dict__.get("_shared")
        if shared is None or None in key:
            shared = {}
        if key not in shared:
            value = build(*args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            shared[key] = value, args
        return shared[key][0]

    def _nodes(self, mask: np.ndarray) -> np.ndarray:
        """Flat box indices of the mask's nodes, ascending."""
        return self._derived(("nodes", self._own(mask)), np.flatnonzero, mask)

    def stencils(self, row_mask: np.ndarray, col_mask: np.ndarray,
                 transpose: bool = False) -> list[list[tuple]]:
        """calculus.mask_stencils(row_mask, col_mask, h, transpose), which
        depends on the masks and h only."""
        from . import calculus
        return self._derived(("stencils", self._own(row_mask), self._own(col_mask), transpose),
                             calculus.mask_stencils, row_mask, col_mask, self.h, transpose)

    def phi_values(self, weight: Weight, mask: np.ndarray) -> np.ndarray:
        """phi at the mask's nodes, in compact order."""
        return self._derived(("phi", id(weight), self._own(mask)),
                             lambda w, m: w.phi(self.compact(self.coords, m)), weight, mask)

    def weight_values(self, weight: Weight, mask: np.ndarray) -> np.ndarray:
        """exp(-phi) at the mask's nodes, in compact order."""
        return self._derived(("exp", id(weight), self._own(mask)),
                             lambda w, m: np.exp(-self.phi_values(w, m)), weight, mask)

    def shifted_weight_values(self, weight: Weight, mask: np.ndarray,
                              shift_mask: np.ndarray) -> np.ndarray:
        """exp(-(phi - shift)) at the mask's nodes, in compact order, where
        shift is the minimum of phi over shift_mask (0 if it is empty): the
        weight scaled to at most 1 on shift_mask, so that it stays tame for
        large phi."""
        def build(w, m, s):
            phi_s = self.phi_values(w, s)
            shift = float(phi_s.min()) if phi_s.size else 0.0
            return np.exp(-(self.phi_values(w, m) - shift))

        return self._derived(("shifted", id(weight), self._own(mask), self._own(shift_mask)),
                             build, weight, mask, shift_mask)

    def compact(self, a: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """a (shape (k, *grid.shape)) on the mask's nodes: a C-contiguous
        (k, #mask nodes) array, nodes in C order."""
        return np.take(a.reshape(len(a), mask.size), self._nodes(mask), axis=1)

    def expand(self, u: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Inverse of compact: the box array with u on the mask, 0 elsewhere."""
        out = np.zeros((len(u),) + mask.shape, dtype=u.dtype)
        out.reshape(len(u), mask.size)[:, self._nodes(mask)] = u
        return out

    def _positions(self, sub: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Where the nodes of sub sit among the mask's nodes; every node of
        sub must lie in the mask."""
        nodes, inner = self._nodes(mask), self._nodes(sub)
        pos = np.searchsorted(nodes, inner)
        if inner.size and (pos[-1] >= nodes.size or not np.array_equal(nodes[pos], inner)):
            raise ValidationError("the submask has nodes outside the mask")
        return pos

    def restrict(self, u: np.ndarray, mask: np.ndarray, sub: np.ndarray) -> np.ndarray:
        """u, given on the mask's nodes (the layout of compact), on the
        nodes of sub, which lie in the mask."""
        return np.take(u, self._positions(sub, mask), axis=1)

    def extend(self, u: np.ndarray, sub: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """u, given on the nodes of sub, extended by zero to the nodes of
        the mask that contains sub."""
        pos = self._positions(sub, mask)
        out = np.zeros((len(u), self._nodes(mask).size), dtype=u.dtype)
        out[:, pos] = u
        return out


RHO_SLABS = 8


def lattice_ranges(domain: Domain, h: float, pad: int = 2) -> list[tuple[int, int]]:
    """The first and last lattice index k of each axis of the grid at
    spacing h, in Python ints, so that a grid is sized before any array.
    Raises ResolutionError when its coordinates would not fit in an array."""
    lo, hi = domain.bounding_box()
    too_large = ResolutionError(f"the grid at h={h} has more nodes than an array can hold")
    try:
        ranges = [(math.floor(a / h - 0.5) - pad, math.ceil(b / h - 0.5) + pad)
                  for a, b in zip(lo.tolist(), hi.tolist())]
    except OverflowError:  # a / h or b / h is infinite
        raise too_large from None
    if 8 * domain.dim * math.prod(k1 - k0 + 1 for k0, k1 in ranges) > np.iinfo(np.intp).max:
        raise too_large
    return ranges


def build_grid(domain: Domain, h: float, margin: float = 0.0, pad: int = 2) -> Grid:
    """Build the cell-centered grid for a domain at spacing h.

    Nodes sit on the global lattice (k + 1/2) * h so layouts at different
    h nest consistently.  Raises ResolutionError when no node is interior
    or, before any array is made, when the grid is too large for one.
    """
    if h <= 0:
        raise ValidationError("grid spacing must be positive")
    if margin < 0:
        raise ValidationError("margin must be nonnegative")
    ranges = lattice_ranges(domain, h, pad)
    axes = [(np.arange(k0, k1 + 1) + 0.5) * h for k0, k1 in ranges]
    shape = tuple(len(a) for a in axes)
    coords = np.empty((domain.dim,) + shape)
    for d, a in enumerate(axes):
        coords[d] = a.reshape((-1,) + (1,) * (domain.dim - 1 - d))
    # rho in RHO_SLABS slabs along the first axis, so that its temporaries
    # stay a fraction of coords
    interior = np.empty(shape, dtype=bool)
    step = -(-shape[0] // RHO_SLABS)
    for start in range(0, shape[0], step):
        slab = slice(start, start + step)
        interior[slab] = domain.rho(coords[:, slab]) < -margin
    if not interior.any():
        raise ResolutionError(
            f"no interior nodes for h={h}; refine the grid or shrink the margin")
    mask_eq = _dilate(interior)
    mask_dof = _dilate(mask_eq)
    for mask in (interior, mask_eq, mask_dof):
        mask.flags.writeable = False  # a sharing block keeps what derives from them
    return Grid(domain, float(h), float(margin), tuple(axes), coords,
                interior, mask_eq, mask_dof)


def estimate_c(weight: Weight, grid: Grid) -> float:
    """Convexity constant of the weight on G: the minimum over interior
    nodes of the smallest Hessian eigenvalue, taken once from the constant
    Hessian 2 A of a quadratic weight.  Rejects nonconvex weights."""
    if weight.matrix is not None:
        eig = np.linalg.eigvalsh(2.0 * weight.matrix)
    else:
        hess = weight.hess(grid.compact(grid.coords, grid.interior))
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
