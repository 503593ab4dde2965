"""Pointwise and integral identities for the weighted codifferential,
checked on polynomial test forms with exact symbolic differentiation.

A polynomial is a dense coefficient tensor over an exponent box:
coef[e_1, ..., e_N] multiplies x_1^e_1 ... x_N^e_N.  A polynomial p-form
stacks one such tensor per increasing multiindex, in the lexicographic
layout, over one box.  Its exterior derivative and first derivatives are
exact array operations (shifts scaled by the exponents, and sums of
signed coefficients); an evaluation is one product of the coefficients
with the table of the box's monomials at the points, and only it rounds.
The integral identity check (the weighted integration-by-parts identity
linking |T* a|^2 + |d a|^2 to the Hessian, gradient and boundary terms)
combines interior midpoint quadrature with the parametrized boundary
quadrature; its tolerance is dominated by the O(h) boundary-cell error
of the midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .calculus import d_terms
from .domain import BoundaryQuadrature, Domain, Grid, Weight, estimate_c
from .errors import ValidationError
from .forms import weighted_sum
from .multiindex import (MultiIndex, increasing_indices, index_positions, num_indices,
                         sort_signature)


def _monomials(points: np.ndarray, box: tuple[int, ...]) -> np.ndarray:
    """x^e at each point for every exponent e of the box, e in C order:
    shape (prod(box), number of points)."""
    x = np.asarray(points, dtype=float).reshape(len(box), -1)
    # powers[k, a] = x_a^k by repeated multiplication
    powers = np.empty((max(box),) + x.shape)
    powers[0] = 1.0
    for k in range(1, len(powers)):
        np.multiply(powers[k - 1], x, out=powers[k])
    table = powers[:box[0], 0]
    for a, m in enumerate(box[1:], 1):
        table = (table[:, None] * powers[:m, a]).reshape(-1, x.shape[1])
    return table


@lru_cache(maxsize=None)
def _jet_gather(box: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(source, factor), each of shape (N + 1, prod(box)), for the first
    jet of coefficient tensors over the box in flat C order: row 0 is the
    identity and row a the exact derivative along x_a, out[f] =
    factor[a, f] * coef[source[a, f]].  The coefficient of x^e becomes
    (e_a + 1) times that of x^(e + e_a), and 0 on the box's last layer."""
    size = math.prod(box)
    exponents = np.indices(box).reshape(len(box), size)
    flat = np.arange(size)
    source, factor = [flat], [np.ones(size)]
    for a, m in enumerate(box):
        inside = exponents[a] + 1 < m
        source.append(np.where(inside, flat + math.prod(box[a + 1:]), flat))
        factor.append(np.where(inside, exponents[a] + 1.0, 0.0))
    source, factor = np.array(source), np.array(factor)
    source.flags.writeable = factor.flags.writeable = False
    return source, factor


def _first_jet(coef: np.ndarray, box: tuple[int, ...]) -> np.ndarray:
    """Rows of flat coefficient tensors, shape (R, prod(box)), with their
    first partial derivatives: shape (R, N + 1, prod(box)), [:, 0] the
    tensors themselves and [:, a] their derivatives along x_a."""
    source, factor = _jet_gather(box)
    return coef[:, source] * factor


def _boxed(coefs, shape: tuple[int, ...]) -> np.ndarray:
    """Stack coefficient tensors, each padded with zeros to the box shape."""
    out = np.zeros((len(coefs),) + shape)
    for dst, c in zip(out, coefs):
        dst[tuple(slice(0, m) for m in c.shape)] = c
    return out


class Poly:
    """Multivariate polynomial with exact derivative support: coef[e] is
    the coefficient of x^e over the exponent box coef.shape."""

    __slots__ = ("nvars", "coef")

    def __init__(self, nvars: int, coef: np.ndarray | None = None):
        self.nvars = nvars
        self.coef = np.zeros((1,) * nvars) if coef is None else np.asarray(coef, dtype=float)
        if self.coef.ndim != nvars:
            raise ValidationError(
                f"a polynomial in {nvars} variables needs {nvars} exponent axes, "
                f"got {self.coef.ndim}")

    @staticmethod
    def constant(nvars: int, value: float) -> "Poly":
        return Poly(nvars, np.full((1,) * nvars, float(value)))

    @staticmethod
    def variable(nvars: int, j: int) -> "Poly":
        """x_j, 1-based."""
        coef = np.zeros(tuple(2 if a == j - 1 else 1 for a in range(nvars)))
        coef.flat[1] = 1.0
        return Poly(nvars, coef)

    def deriv(self, j: int) -> "Poly":
        """Exact partial derivative along the 1-based axis j."""
        box = self.coef.shape
        jet = _first_jet(self.coef.reshape(1, -1), box)
        return Poly(self.nvars, jet[0, j].reshape(box))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        values = self.coef.reshape(-1) @ _monomials(points, self.coef.shape)
        return values.reshape(np.shape(points)[1:])

    def _boxed_with(self, other: "Poly") -> np.ndarray:
        return _boxed((self.coef, other.coef),
                      tuple(np.maximum(self.coef.shape, other.coef.shape)))

    def __add__(self, other):
        a, b = self._boxed_with(other)
        return Poly(self.nvars, a + b)

    def __sub__(self, other):
        a, b = self._boxed_with(other)
        return Poly(self.nvars, a - b)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coef, other.coef
            out = np.zeros(tuple(i + j - 1 for i, j in zip(a.shape, b.shape)))
            for e in zip(*np.nonzero(a)):
                out[tuple(slice(k, k + m) for k, m in zip(e, b.shape))] += a[e] * b
            return Poly(self.nvars, out)
        return Poly(self.nvars, self.coef * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @property
    def is_zero(self) -> bool:
        return not self.coef.any()


@lru_cache(maxsize=None)
def _d_matrix(nvars: int, degree: int) -> np.ndarray:
    """Exterior derivative on first jets of the coefficients: entry
    [o, i (N + 1) + ax + 1] is s for each term (o, i, s, ax) of d_terms
    (see _first_jet for the layout of the columns)."""
    mat = np.zeros((num_indices(nvars, degree + 1), num_indices(nvars, degree) * (nvars + 1)))
    for o, i, s, ax in d_terms(nvars, degree):
        mat[o, i * (nvars + 1) + ax + 1] = s
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def _jet_matrix(nvars: int, degree: int) -> np.ndarray:
    """Signed selection of a_{jI} from the components: entry [i N + ax, o]
    is s for each term (o, i, s, ax) of d_terms on degree - 1, j = ax + 1,
    and the rows with j in I stay 0."""
    mat = np.zeros((num_indices(nvars, degree - 1) * nvars, num_indices(nvars, degree)))
    for o, i, s, ax in d_terms(nvars, degree - 1):
        mat[i * nvars + ax, o] = s
    mat.flags.writeable = False
    return mat


class PolyForm:
    """Polynomial p-form: coef[k] is the coefficient tensor (see Poly) of
    the k-th increasing p-index in lexicographic order, all over one
    exponent box.  comps maps each increasing index (tuple) to its Poly."""

    __slots__ = ("nvars", "degree", "coef")

    def __init__(self, nvars: int, degree: int, comps: dict):
        pos = index_positions(nvars, degree)
        given = {}
        for key, poly in comps.items():
            idx = MultiIndex(key, nvars)
            if idx.degree != degree:
                raise ValidationError(f"component {tuple(idx)} has wrong degree")
            given[pos[idx]] = poly.coef
        box = tuple(np.max([c.shape for c in given.values()], axis=0)) if given else (1,) * nvars
        coefs = [given.get(k, np.zeros((1,) * nvars)) for k in range(len(pos))]
        self.nvars, self.degree, self.coef = nvars, degree, _boxed(coefs, box)

    @classmethod
    def _of(cls, nvars: int, degree: int, coef: np.ndarray) -> "PolyForm":
        """The form with these stacked coefficient tensors."""
        form = cls.__new__(cls)
        form.nvars, form.degree, form.coef = nvars, degree, coef
        return form

    @property
    def comps(self) -> dict:
        """The nonzero components, as {increasing index: Poly}."""
        return {idx: Poly(self.nvars, c)
                for idx, c in zip(increasing_indices(self.nvars, self.degree), self.coef)
                if c.any()}

    def component(self, seq) -> Poly:
        """Signed coefficient for an arbitrary index sequence."""
        signed = sort_signature(seq, self.nvars)
        k = index_positions(self.nvars, self.degree).get(signed.index)
        if signed.sign == 0 or k is None:
            return Poly(self.nvars)
        return Poly(self.nvars, signed.sign * self.coef[k])

    def d(self) -> "PolyForm":
        n, box = self.nvars, self.coef.shape[1:]
        size = math.prod(box)
        jet = _first_jet(self.coef.reshape(len(self.coef), size), box)
        coef = _d_matrix(n, self.degree) @ jet.reshape(-1, size)
        return PolyForm._of(n, self.degree + 1, coef.reshape((len(coef),) + box))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """(ncomp, npts) array in the lexicographic layout."""
        box = self.coef.shape[1:]
        values = self.coef.reshape(len(self.coef), math.prod(box)) @ _monomials(points, box)
        return values.reshape((len(self.coef),) + np.shape(points)[1:])


def random_polyform(rng: np.random.Generator, nvars: int, degree: int) -> PolyForm:
    """Random polynomial form with small integer-grade coefficients: four
    terms per component, each with exponents in 0..2.  Per term it draws
    the exponents, then the coefficient: integers(size=N) gives the N
    values of N scalar integers() calls, and standard_normal() the value
    of normal(), so a seed gives the forms of those calls."""
    coef = np.zeros((len(increasing_indices(nvars, degree)),) + (3,) * nvars)
    for c in coef:
        for _ in range(4):
            c[tuple(rng.integers(0, 3, size=nvars).tolist())] += rng.standard_normal()
    return PolyForm._of(nvars, degree, coef)


def tangential_1form(domain: Domain, g: Poly | float = 1.0) -> PolyForm:
    """Polynomial 1-form tangent to the boundary of a 2-D ball/ellipsoid:
    g * (-(x2-c2) a1^2 dx1 + (x1-c1) a2^2 dx2) pairs to zero with grad rho
    identically, hence lies in the domain of the weighted adjoint."""
    if domain.dim != 2 or domain.kind not in ("ball", "ellipsoid"):
        raise ValidationError("tangential generators implemented for 2-D balls/ellipsoids")
    if not isinstance(g, Poly):
        g = Poly.constant(2, float(g))
    a1, a2 = domain.semi_axes
    c1, c2 = domain.center
    x1 = Poly.variable(2, 1) - Poly.constant(2, c1)
    x2 = Poly.variable(2, 2) - Poly.constant(2, c2)
    return PolyForm(2, 1, {
        (1,): g * (-(a1 ** 2) * x2),
        (2,): g * ((a2 ** 2) * x1),
    })


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _jet(alpha: PolyForm, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-order jet of a polynomial p-form at points, from one table of
    monomials.

    Returns a[I, j] = a_{jI} and da[I, j, k] = d a_{jI}/dx_k (j, k
    0-based), I running over the increasing (p-1)-indices in lexicographic
    order.  a_{jI} carries the sign of sort_signature((j,) + I) and is 0
    when j occurs in I.
    """
    n, box = alpha.nvars, alpha.coef.shape[1:]
    size = math.prod(box)
    # the coefficient tensors of the a_{jI}, rows (I, j), with their derivatives
    signed = _jet_matrix(n, alpha.degree) @ alpha.coef.reshape(len(alpha.coef), size)
    jet = _first_jet(signed, box).reshape(-1, size)
    values = (jet @ _monomials(points, box)).reshape((-1, n, n + 1) + np.shape(points)[1:])
    return values[:, :, 0], values[:, :, 1:]


def _gradient_sum(da: np.ndarray, degree: int) -> np.ndarray:
    """sum_J |grad a_J|^2 over increasing p-indices J; the jet holds each
    component once per entry of J."""
    return np.sum(da ** 2, axis=(0, 1, 2)) / degree


def _hessian_form(hess: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_{j,k} hess[j, k] a_{jI} a_{kI} for each I."""
    return np.einsum("jk...,ij...,ik...->i...", hess, a, a)


def _normal_component(a: np.ndarray, grad_rho: np.ndarray) -> np.ndarray:
    """sum_j a_{jI} d rho/dx_j for each I."""
    return np.einsum("ij...,j...->i...", a, grad_rho)


def check_dalpha_identity(alpha: PolyForm, points: np.ndarray) -> float:
    """Max pointwise deviation of |d a|^2 from the gradient double sum
    minus the crossed-derivative double sum."""
    lhs = np.sum(alpha.d().eval(points) ** 2, axis=0)
    _, da = _jet(alpha, points)
    cross = np.einsum("ijk...,ikj...->...", da, da)
    return float(np.abs(lhs - (_gradient_sum(da, alpha.degree) - cross)).max())


def check_boundary_identity(alpha: PolyForm, domain: Domain,
                            quad: BoundaryQuadrature) -> float:
    """Max deviation, over boundary nodes, of the tangential-derivative
    identity satisfied by adjoint-domain forms:

        sum_{j,k} a_{kI} (d a_{jI}/dx_k) (d rho/dx_j)
            = - sum_{j,k} a_{jI} a_{kI} d2 rho/dx_j dx_k.

    Raises unless alpha is in that domain: its normal component is at
    most 1e-8 of its largest coefficient on the nodes.
    """
    a, da = _jet(alpha, quad.nodes)
    grad = domain.grad_rho(quad.nodes)
    scale = max(float(np.abs(a).max()), 1e-300)
    violation = float(np.abs(_normal_component(a, grad)).max())
    if violation > 1e-8 * scale:
        raise ValidationError(
            f"form violates the adjoint-domain boundary condition: {violation:.3e}")
    lhs = np.einsum("ik...,ijk...,j...->i...", a, da, grad)
    rhs = -_hessian_form(domain.hess_rho(quad.nodes), a)
    return float(np.abs(lhs - rhs).max())


@dataclass
class BochnerResult:
    lhs: float
    rhs: float
    deviation: float


def _interior_quadrature(grid: Grid, weight: Weight):
    return (grid.compact(grid.coords, grid.interior),
            grid.weight_values(weight, grid.interior) * grid.cell_volume)


def _t_star(a: np.ndarray, da: np.ndarray, gradphi: np.ndarray) -> np.ndarray:
    """A_I = -sum_j (d a_{jI}/dx_j - phi_j a_{jI}) from a jet."""
    return np.einsum("j...,ij...->i...", gradphi, a) - np.einsum("ijj...->i...", da)


def _energy(alpha: PolyForm, weight: Weight, domain: Domain, grid: Grid):
    """|T* a|^2 + |d a|^2 by interior quadrature, with the quadrature
    points and weights and the jet of alpha there.  Raises
    ValidationError unless grid is built on domain."""
    if grid.domain != domain:
        raise ValidationError(
            f"the grid is built on {grid.domain}, not on the checked domain {domain}")
    pts, w = _interior_quadrature(grid, weight)
    a, da = _jet(alpha, pts)
    lhs = (weighted_sum(_t_star(a, da, weight.grad(pts)) ** 2, w)
           + weighted_sum(alpha.d().eval(pts) ** 2, w))
    return lhs, pts, w, a, da


def check_bochner_identity(alpha: PolyForm, weight: Weight, domain: Domain,
                           grid: Grid, quad: BoundaryQuadrature):
    """Both sides of the weighted integration-by-parts identity

        |T* a|^2 + |d a|^2 = int Hess(phi)[a, a] e^-phi
                             + int sum |grad a_J|^2 e^-phi
                             + boundary Hessian(rho)[a, a] term,

    with every integral evaluated by quadrature.  |d a|^2 comes from the
    exact alpha.d(), the other terms from one jet per point set.  Returns
    a BochnerResult with the two sides and their absolute deviation.  Each
    integrand is nonnegative for a convex weight and domain, so an integral
    that underflows to 0 raises (forms.weighted_sum).  Raises
    ValidationError unless grid is built on domain.
    """
    lhs, pts, w, a, da = _energy(alpha, weight, domain, grid)
    rhs1 = weighted_sum(_hessian_form(weight.hess(pts), a), w)
    rhs2 = weighted_sum(_gradient_sum(da, alpha.degree), w)
    bpts = quad.nodes
    bw = quad.weights * np.exp(-weight.phi(bpts))
    b, _ = _jet(alpha, bpts)
    rhs3 = weighted_sum(_hessian_form(domain.hess_rho(bpts), b), bw)
    rhs = rhs1 + rhs2 + rhs3
    return BochnerResult(lhs, rhs, abs(lhs - rhs))


def check_basic_estimate(alpha: PolyForm, weight: Weight, domain: Domain,
                         grid: Grid) -> tuple[float, float]:
    """Margin of the coercivity estimate
    |T* a|^2 + |d a|^2 - c (p+1) |a|^2 >= 0 (up to quadrature error).

    Returns (margin, reference) where reference = c (p+1) |a|^2.  Raises
    ValidationError unless grid is built on domain, as
    check_bochner_identity does.
    """
    lhs, pts, w, _, _ = _energy(alpha, weight, domain, grid)
    norm_a2 = weighted_sum(alpha.eval(pts) ** 2, w)
    c = estimate_c(weight, grid)
    reference = c * alpha.degree * norm_a2
    return lhs - reference, reference
