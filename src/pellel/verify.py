"""Pointwise and integral identities for the weighted codifferential,
checked on polynomial test forms with exact symbolic differentiation.

Polynomial forms keep a dictionary of monomial coefficients per
increasing multiindex, so exterior derivatives and coefficient access are
exact; only the final evaluation rounds.  The integral identity check
(the weighted integration-by-parts identity linking |T* a|^2 + |d a|^2 to
the Hessian, gradient and boundary terms) combines interior midpoint
quadrature with the parametrized boundary quadrature; its tolerance is
dominated by the O(h) boundary-cell error of the midpoint rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import BoundaryQuadrature, Domain, Grid, Weight, estimate_c
from .errors import ValidationError
from .forms import weighted_sum
from .multiindex import (MultiIndex, increasing_indices, index_positions,
                         remove, sort_signature)


class Poly:
    """Multivariate polynomial with exact derivative support."""

    __slots__ = ("nvars", "coef")

    def __init__(self, nvars: int, coef: dict | None = None):
        self.nvars = nvars
        self.coef = {}
        for e, c in (coef or {}).items():
            if c:
                self.coef[tuple(int(k) for k in e)] = float(c)

    @staticmethod
    def constant(nvars: int, value: float) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, j: int) -> "Poly":
        """x_j, 1-based."""
        e = [0] * nvars
        e[j - 1] = 1
        return Poly(nvars, {tuple(e): 1.0})

    def deriv(self, j: int) -> "Poly":
        """Exact partial derivative along the 1-based axis j."""
        out = {}
        for e, c in self.coef.items():
            if e[j - 1]:
                e2 = list(e)
                e2[j - 1] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[j - 1]
        return Poly(self.nvars, out)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[1:])
        for e, c in self.coef.items():
            term = np.full(pts.shape[1:], c)
            for ax, k in enumerate(e):
                if k:
                    term = term * pts[ax] ** k
            out += term
        return out

    def __add__(self, other):
        out = dict(self.coef)
        for e, c in other.coef.items():
            out[e] = out.get(e, 0.0) + c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.coef)
        for e, c in other.coef.items():
            out[e] = out.get(e, 0.0) - c
        return Poly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for e1, c1 in self.coef.items():
                for e2, c2 in other.coef.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            return Poly(self.nvars, out)
        return Poly(self.nvars, {e: c * float(other) for e, c in self.coef.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    @property
    def is_zero(self) -> bool:
        return not self.coef


@dataclass
class PolyForm:
    """Polynomial p-form: exact coefficients per increasing multiindex."""

    nvars: int
    degree: int
    comps: dict

    def __post_init__(self):
        clean = {}
        for key, poly in self.comps.items():
            idx = MultiIndex(key, self.nvars)
            if idx.degree != self.degree:
                raise ValidationError(f"component {tuple(idx)} has wrong degree")
            if not poly.is_zero:
                clean[idx] = poly
        self.comps = clean

    def component(self, seq) -> Poly:
        """Signed coefficient for an arbitrary index sequence."""
        signed = sort_signature(seq, self.nvars)
        if signed.sign == 0:
            return Poly(self.nvars)
        base = self.comps.get(signed.index)
        if base is None:
            return Poly(self.nvars)
        return signed.sign * base

    def d(self) -> "PolyForm":
        from .multiindex import prepend
        out: dict = {}
        for idx, poly in self.comps.items():
            for j in range(1, self.nvars + 1):
                signed = prepend(j, idx, self.nvars)
                if signed.sign == 0:
                    continue
                term = signed.sign * poly.deriv(j)
                if signed.index in out:
                    out[signed.index] = out[signed.index] + term
                else:
                    out[signed.index] = term
        return PolyForm(self.nvars, self.degree + 1, out)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """(ncomp, npts) array in the lexicographic layout."""
        idxs = increasing_indices(self.nvars, self.degree)
        out = np.zeros((len(idxs),) + np.shape(points)[1:])
        pos = index_positions(self.nvars, self.degree)
        for idx, poly in self.comps.items():
            out[pos[idx]] = poly(points)
        return out


def random_polyform(rng: np.random.Generator, nvars: int, degree: int,
                    max_power: int = 2, terms: int = 4) -> PolyForm:
    """Random polynomial form with small integer-grade coefficients."""
    comps = {}
    for idx in increasing_indices(nvars, degree):
        coef = {}
        for _ in range(terms):
            e = tuple(int(rng.integers(0, max_power + 1)) for _ in range(nvars))
            coef[e] = coef.get(e, 0.0) + float(rng.normal())
        comps[idx] = Poly(nvars, coef)
    return PolyForm(nvars, degree, comps)


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
    """First-order jet of a polynomial p-form at points, with each nonzero
    component and each of its N first derivatives evaluated once.

    Returns a[I, j] = a_{jI} and da[I, j, k] = d a_{jI}/dx_k (j, k
    0-based), I running over the increasing (p-1)-indices in lexicographic
    order.  a_{jI} carries the sign of sort_signature((j,) + I) and is 0
    when j occurs in I.
    """
    n = alpha.nvars
    pos = index_positions(n, alpha.degree - 1)
    a = np.zeros((len(pos), n) + points.shape[1:])
    da = np.zeros((len(pos), n, n) + points.shape[1:])
    for J, poly in alpha.comps.items():
        val = poly(points)
        grad = np.stack([poly.deriv(k)(points) for k in range(1, n + 1)])
        for j in J:
            I, sign = remove(J, j)
            a[pos[I], j - 1] = sign * val
            da[pos[I], j - 1] = sign * grad
    return a, da


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


def boundary_condition_violation(alpha: PolyForm, domain: Domain,
                                 quad: BoundaryQuadrature) -> float:
    """Max over boundary nodes and indices I of |sum_j a_{jI} d rho/dx_j|,
    the quantity that must vanish for membership in the adjoint domain."""
    a, _ = _jet(alpha, quad.nodes)
    return float(np.abs(_normal_component(a, domain.grad_rho(quad.nodes))).max())


def check_boundary_identity(alpha: PolyForm, domain: Domain,
                            quad: BoundaryQuadrature,
                            pre_tol: float = 1e-8) -> float:
    """Max deviation, over boundary nodes, of the tangential-derivative
    identity satisfied by adjoint-domain forms:

        sum_{j,k} a_{kI} (d a_{jI}/dx_k) (d rho/dx_j)
            = - sum_{j,k} a_{jI} a_{kI} d2 rho/dx_j dx_k.
    """
    a, da = _jet(alpha, quad.nodes)
    grad = domain.grad_rho(quad.nodes)
    scale = max(float(np.abs(a).max()), 1e-300)
    violation = float(np.abs(_normal_component(a, grad)).max())
    if violation > pre_tol * scale:
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


def t_star_pointwise(alpha: PolyForm, weight: Weight, points: np.ndarray) -> np.ndarray:
    """Formal weighted codifferential of a polynomial form, evaluated
    exactly at points: A_I = -sum_j (d a_{jI}/dx_j - phi_j a_{jI})."""
    a, da = _jet(alpha, points)
    return _t_star(a, da, weight.grad(points))


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
    that underflows to 0 raises (forms.weighted_sum).
    """
    pts, w = _interior_quadrature(grid, weight)
    a, da = _jet(alpha, pts)
    lhs1 = weighted_sum(_t_star(a, da, weight.grad(pts)) ** 2, w)
    lhs2 = weighted_sum(alpha.d().eval(pts) ** 2, w)
    rhs1 = weighted_sum(_hessian_form(weight.hess(pts), a), w)
    rhs2 = weighted_sum(_gradient_sum(da, alpha.degree), w)
    bpts = quad.nodes
    bw = quad.weights * np.exp(-weight.phi(bpts))
    b, _ = _jet(alpha, bpts)
    rhs3 = weighted_sum(_hessian_form(domain.hess_rho(bpts), b), bw)
    lhs = lhs1 + lhs2
    rhs = rhs1 + rhs2 + rhs3
    return BochnerResult(lhs, rhs, abs(lhs - rhs))


def check_basic_estimate(alpha: PolyForm, weight: Weight, domain: Domain,
                         grid: Grid, quad: BoundaryQuadrature) -> tuple[float, float]:
    """Margin of the coercivity estimate
    |T* a|^2 + |d a|^2 - c (p+1) |a|^2 >= 0 (up to quadrature error).

    Returns (margin, reference) where reference = c (p+1) |a|^2.
    """
    result = check_bochner_identity(alpha, weight, domain, grid, quad)
    pts, w = _interior_quadrature(grid, weight)
    norm_a2 = weighted_sum(alpha.eval(pts) ** 2, w)
    c = estimate_c(weight, grid)
    reference = c * alpha.degree * norm_a2
    return result.lhs - reference, reference
