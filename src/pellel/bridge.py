"""Conversions between complex forms and real forms, and the translation
of real convexity into a Levi-form lower bound.

Every conversion derives from forms.real_expansion, the one definition of
the complex structure, through two primitives.  A complex (p,q) form goes
to the real part of its expansion in real (p+q)-forms.  A real form comes
back through the adjoint of the expansion divided by 2^(p+q), the squared
norm of every expanded basis form dz_I ^ dzbar_J; the expanded basis is
orthogonal, so this is the exact (p,q) part.  The same norm gives
|2-form|**2 = 4 |(1,1) form|**2 pointwise for a real (1,1) form and its
real 2-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .domain import Weight
from .errors import ValidationError
from .forms import ComplexForm, RealForm, n_complex_coeffs, real_expansion, wirtinger_frame

REAL_TOL = 1e-10  # realness gate: |f - conj f| <= REAL_TOL * |f|, maxima over the grid


def _to_real(f: ComplexForm) -> RealForm:
    """Real part of the expansion of f."""
    g = RealForm.zeros(f.grid, sum(f.bidegree))
    # every entry is real or imaginary: a real multiindex fixes how many
    # factors i the expansion picks
    for r, k, e in real_expansion(f.n, f.bidegree):
        g.coeffs[r] += e.real * f.coeffs[k].real if e.real else -e.imag * f.coeffs[k].imag
    return g


def _from_real(g: np.ndarray, n: int, bidegree: tuple[int, int]) -> np.ndarray:
    """Coefficients of the (p,q) part over C^n of a real (p+q)-form with
    coefficients g, shape (k, *nodes) in any node layout: the adjoint of
    the expansion divided by 2^(p+q)."""
    f = np.zeros((n_complex_coeffs(n, bidegree),) + g.shape[1:], dtype=complex)
    scale = 0.5 ** sum(bidegree)
    for r, k, e in real_expansion(n, bidegree):
        part = f[k].real if e.real else f[k].imag
        part += scale * (e.real or -e.imag) * g[r]
    return f


def _asymmetry(f: ComplexForm) -> tuple[float, float]:
    """Largest |f - conj f| and the scale it is measured against, the
    largest |f|; f is real to tolerance tol when the first is at most tol
    times the second.  Each coefficient is compared with its conjugate
    partner alone, so the test holds one box component at a time."""
    asym, scale = [], []
    for k, fk in enumerate(f.coeffs):
        diff = calculus.conj_coefficient(f, k)
        np.subtract(fk, diff, out=diff)
        asym.append(np.abs(diff).max())
        scale.append(np.abs(fk).max())
    return float(np.max(asym)), max(float(np.max(scale)), 1e-300)


def real11_to_real2(f: ComplexForm, require_real: bool = True) -> RealForm:
    """Convert a real (1,1) form to the corresponding real 2-form.

    require_real checks f = conj(f) to REAL_TOL and raises with the
    largest asymmetry otherwise; without it a non-real f gives the 2-form
    of its real part (f + conj f) / 2.
    """
    if tuple(f.bidegree) != (1, 1):
        raise ValidationError("input must be a (1,1) form")
    if require_real:
        asym, scale = _asymmetry(f)
        if asym > REAL_TOL * scale:
            raise ValidationError(f"(1,1) form is not real: max asymmetry {asym:.3e} "
                                  f"exceeds {REAL_TOL:.1e} * {scale:.3e}")
    return _to_real(f)


def real2_to_real11(g: RealForm) -> ComplexForm:
    """Inverse conversion; validates that g lies in the image of the real
    (1,1) forms (its (2,0) and (0,2) parts vanish to REAL_TOL)."""
    if g.degree != 2:
        raise ValidationError("input must be a real 2-form")
    if g.grid.dim % 2:
        raise ValidationError("real dimension must be even")
    f = ComplexForm(g.grid, (1, 1), _from_real(g.coeffs, g.grid.dim // 2, (1, 1)))
    scale = max(float(np.abs(g.coeffs).max()), 1e-300)
    worst = float(np.abs(_to_real(f).coeffs - g.coeffs).max())
    if worst > REAL_TOL * scale:
        raise ValidationError(
            f"2-form outside the image of real (1,1) forms: mismatch {worst:.3e}")
    return f


def split_1form(v: RealForm) -> tuple[ComplexForm, ComplexForm]:
    """Split a real 1-form into its (1,0) and (0,1) parts.

    Components: (v_{2j-1}/2 + v_{2j}/(2i)) dz_j and the conjugate; the two
    parts reassemble to v exactly and are exact conjugates of each other.
    """
    if v.degree != 1:
        raise ValidationError("input must be a real 1-form")
    if v.grid.dim % 2:
        raise ValidationError("real dimension must be even")
    v10, v01 = split_1form_coeffs(v.coeffs, v.grid.dim // 2)
    return ComplexForm(v.grid, (1, 0), v10), ComplexForm(v.grid, (0, 1), v01)


def split_1form_coeffs(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """split_1form on the coefficients of a real 1-form over C^n, shape
    (2n, *nodes) in any node layout, box or compact."""
    v10 = _from_real(v, n, (1, 0))
    return v10, v10.conj()


@dataclass(frozen=True)
class HessianSplit:
    """Complex Hessian blocks of a weight at a batch of points: the
    holomorphic block phi_{z_j z_k}, the mixed (Levi) block
    phi_{z_j zbar_k} and the antiholomorphic block (conjugate of the
    holomorphic one)."""

    holo: np.ndarray
    mixed: np.ndarray
    anti: np.ndarray


def complex_hessian(weight: Weight, points: np.ndarray) -> HessianSplit:
    """Wirtinger second derivatives from the real Hessian H: W H W^T and
    W H W^H in the Wirtinger frame W."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] % 2:
        raise ValidationError("points must have an even leading dimension")
    W = wirtinger_frame(pts.shape[0] // 2)
    H = weight.hess(pts)
    holo = np.einsum("ja,ab...,kb->jk...", W, H, W)
    mixed = np.einsum("ja,ab...,kb->jk...", W, H, W.conj())
    return HessianSplit(holo, mixed, holo.conj())


def hessian_split_identity(weight: Weight, x, xi) -> tuple[float, float]:
    """Both sides of the real-to-complex Hessian splitting at one point:
    xi^T Hess(phi) xi versus the holomorphic + 2 mixed + antiholomorphic
    quadratic, with omega_j = dz_j(xi) = 2 (conj(W) xi)_j in the Wirtinger
    frame W."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    xi = np.asarray(xi, dtype=float)
    if x.shape[0] != xi.shape[0] or x.shape[0] % 2:
        raise ValidationError("point and direction must share an even dimension")
    H = weight.hess(x)[..., 0]
    lhs = float(xi @ H @ xi)
    split = complex_hessian(weight, x)
    omega = 2.0 * wirtinger_frame(xi.shape[0] // 2).conj() @ xi
    holo = split.holo[..., 0]
    mixed = split.mixed[..., 0]
    quad_holo = omega @ holo @ omega  # antiholomorphic block contributes its conjugate
    quad_mixed = np.einsum("jk,j,k->", mixed, omega, omega.conj())
    rhs = float((quad_holo + np.conj(quad_holo) + 2.0 * quad_mixed).real)
    return lhs, rhs


def levi_lower_bound(weight: Weight, c: float, x, omega) -> tuple[float, float]:
    """Levi-form value against its convexity lower bound at one point:
    returns (sum mixed_{jk} w_j conj(w_k), c/2 |w|**2 + |holomorphic
    quadratic|).  The first is at least the second for weights with real
    Hessian bounded below by c."""
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    omega = np.asarray(omega, dtype=complex)
    split = complex_hessian(weight, x)
    mixed = split.mixed[..., 0]
    holo = split.holo[..., 0]
    levi = float(np.einsum("jk,j,k->", mixed, omega, omega.conj()).real)
    bound = float(0.5 * c * np.vdot(omega, omega).real
                  + abs(omega @ holo @ omega))
    return levi, bound
