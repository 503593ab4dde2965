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
from .multiindex import (MultiIndex, increasing_indices, index_positions,
                         sort_signature)


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

def check_dalpha_identity(alpha: PolyForm, points: np.ndarray) -> float:
    """Max pointwise deviation of |d a|^2 from the gradient double sum
    minus the crossed-derivative double sum."""
    n = alpha.nvars
    dalpha = alpha.d()
    lhs = np.sum(dalpha.eval(points) ** 2, axis=0)
    rhs = np.zeros(points.shape[1:])
    for idx, poly in alpha.comps.items():
        for j in range(1, n + 1):
            rhs += poly.deriv(j)(points) ** 2
    for I in increasing_indices(n, alpha.degree - 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                a_kI = alpha.component((k,) + tuple(I))
                a_jI = alpha.component((j,) + tuple(I))
                if a_kI.is_zero or a_jI.is_zero:
                    continue
                rhs -= a_kI.deriv(j)(points) * a_jI.deriv(k)(points)
    return float(np.abs(lhs - rhs).max())


def boundary_condition_violation(alpha: PolyForm, domain: Domain,
                                 quad: BoundaryQuadrature) -> float:
    """Max over boundary nodes and indices I of |sum_j a_{jI} d rho/dx_j|,
    the quantity that must vanish for membership in the adjoint domain."""
    n = alpha.nvars
    grad = domain.grad_rho(quad.nodes)
    worst = 0.0
    for I in increasing_indices(n, alpha.degree - 1):
        acc = np.zeros(quad.nodes.shape[1])
        for j in range(1, n + 1):
            a_jI = alpha.component((j,) + tuple(I))
            if not a_jI.is_zero:
                acc += a_jI(quad.nodes) * grad[j - 1]
        worst = max(worst, float(np.abs(acc).max()))
    return worst


def check_boundary_identity(alpha: PolyForm, domain: Domain,
                            quad: BoundaryQuadrature,
                            pre_tol: float = 1e-8) -> float:
    """Max deviation, over boundary nodes, of the tangential-derivative
    identity satisfied by adjoint-domain forms:

        sum_{j,k} a_{kI} (d a_{jI}/dx_k) (d rho/dx_j)
            = - sum_{j,k} a_{jI} a_{kI} d2 rho/dx_j dx_k.
    """
    n = alpha.nvars
    scale = max(float(np.abs(alpha.eval(quad.nodes)).max()), 1e-300)
    violation = boundary_condition_violation(alpha, domain, quad)
    if violation > pre_tol * scale:
        raise ValidationError(
            f"form violates the adjoint-domain boundary condition: {violation:.3e}")
    grad = domain.grad_rho(quad.nodes)
    hess = domain.hess_rho(quad.nodes)
    worst = 0.0
    for I in increasing_indices(n, alpha.degree - 1):
        comp = [alpha.component((j,) + tuple(I)) for j in range(1, n + 1)]
        vals = [c(quad.nodes) for c in comp]
        lhs = np.zeros(quad.nodes.shape[1])
        rhs = np.zeros(quad.nodes.shape[1])
        for j in range(n):
            for k in range(n):
                if not comp[j].is_zero:
                    lhs += vals[k] * comp[j].deriv(k + 1)(quad.nodes) * grad[j]
                rhs -= vals[j] * vals[k] * hess[j, k]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@dataclass
class BochnerResult:
    lhs: float
    rhs: float
    deviation: float


def _interior_quadrature(grid: Grid, weight: Weight):
    pts = grid.compact(grid.coords, grid.interior)
    w = np.exp(-weight.phi(pts)) * grid.cell_volume
    return pts, w


def t_star_pointwise(alpha: PolyForm, weight: Weight, points: np.ndarray) -> np.ndarray:
    """Formal weighted codifferential of a polynomial form, evaluated
    exactly at points: A_I = -sum_j (d a_{jI}/dx_j - phi_j a_{jI})."""
    n = alpha.nvars
    gradphi = weight.grad(points)
    idxs = increasing_indices(n, alpha.degree - 1)
    out = np.zeros((len(idxs),) + points.shape[1:])
    for pos, I in enumerate(idxs):
        for j in range(1, n + 1):
            a_jI = alpha.component((j,) + tuple(I))
            if a_jI.is_zero:
                continue
            out[pos] -= a_jI.deriv(j)(points) - gradphi[j - 1] * a_jI(points)
    return out


def check_bochner_identity(alpha: PolyForm, weight: Weight, domain: Domain,
                           grid: Grid, quad: BoundaryQuadrature):
    """Both sides of the weighted integration-by-parts identity

        |T* a|^2 + |d a|^2 = int Hess(phi)[a, a] e^-phi
                             + int sum |grad a_J|^2 e^-phi
                             + boundary Hessian(rho)[a, a] term,

    with every integral evaluated by quadrature.  Returns a BochnerResult
    with the two sides and their absolute deviation.
    """
    n = alpha.nvars
    pts, w = _interior_quadrature(grid, weight)
    tsa = t_star_pointwise(alpha, weight, pts)
    lhs1 = float(np.sum(tsa ** 2 * w))
    da = alpha.d().eval(pts)
    lhs2 = float(np.sum(da ** 2 * w)) if da.size else 0.0
    hessphi = weight.hess(pts)
    term_hess = np.zeros(pts.shape[1])
    for I in increasing_indices(n, alpha.degree - 1):
        vals = [alpha.component((j,) + tuple(I))(pts) for j in range(1, n + 1)]
        for j in range(n):
            for k in range(n):
                term_hess += hessphi[j, k] * vals[j] * vals[k]
    rhs1 = float(np.sum(term_hess * w))
    term_grad = np.zeros(pts.shape[1])
    for idx, poly in alpha.comps.items():
        for j in range(1, n + 1):
            term_grad += poly.deriv(j)(pts) ** 2
    rhs2 = float(np.sum(term_grad * w))
    bpts = quad.nodes
    bw = quad.weights * np.exp(-weight.phi(bpts))
    hessrho = domain.hess_rho(bpts)
    bterm = np.zeros(bpts.shape[1])
    for I in increasing_indices(n, alpha.degree - 1):
        vals = [alpha.component((j,) + tuple(I))(bpts) for j in range(1, n + 1)]
        for j in range(n):
            for k in range(n):
                bterm += vals[j] * vals[k] * hessrho[j, k]
    rhs3 = float(np.sum(bterm * bw))
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
    norm_a2 = float(np.sum(alpha.eval(pts) ** 2 * w))
    c = estimate_c(weight, domain, grid)
    reference = c * alpha.degree * norm_a2
    return result.lhs - reference, reference
