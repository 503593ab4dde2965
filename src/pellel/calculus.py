"""Discrete differential operators: d, its weighted adjoints, and the
complex operators built from Wirtinger combinations of the same stencils.

Per-axis differences are centered O(h**2) except at the two box faces,
where they fall back to first-order one-sided differences.  The stencil
choice along an axis depends only on the position along that axis, so the
per-axis operators commute exactly and d(d u) vanishes to rounding for
every grid form.  All complex operators are linear combinations of the
same commuting stencils, which makes the type identities (anticommutation
of the two first-order complex operators, conjugation symmetry) exact as
well.

Two adjoints of d are provided.  t_star_formula evaluates the formal
weighted codifferential A_I = -sum_j delta_j alpha_{jI} with
delta_j = d/dx_j - phi_j; it is the integration-by-parts formula and is
O(h**2)-consistent in the interior.  t_star_discrete is the exact matrix
adjoint of d with respect to the discrete weighted inner products (target
mask m, source mask = m dilated by one ring); the two differ by boundary
terms, mirroring the boundary condition carried by the true Hilbert-space
adjoint.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .domain import Grid, Weight, _dilate
from .errors import ValidationError
from .forms import ComplexForm, RealForm, n_complex_coeffs
from .multiindex import (MultiIndex, increasing_indices, index_positions,
                         num_indices, prepend)


def _sl(ndim, ax, s):
    return tuple(s if i == ax else slice(None) for i in range(ndim))


def diff_axis(a: np.ndarray, ax: int, h: float) -> np.ndarray:
    """First derivative along one axis: centered inside, one-sided at the
    two box faces."""
    out = np.empty_like(a)
    nd = a.ndim
    out[_sl(nd, ax, slice(1, -1))] = (a[_sl(nd, ax, slice(2, None))]
                                      - a[_sl(nd, ax, slice(None, -2))]) / (2.0 * h)
    out[_sl(nd, ax, slice(0, 1))] = (a[_sl(nd, ax, slice(1, 2))]
                                     - a[_sl(nd, ax, slice(0, 1))]) / h
    out[_sl(nd, ax, slice(-1, None))] = (a[_sl(nd, ax, slice(-1, None))]
                                         - a[_sl(nd, ax, slice(-2, -1))]) / h
    return out


def diff_axis_t(a: np.ndarray, ax: int, h: float) -> np.ndarray:
    """Exact transpose of diff_axis (scatter form of the stencil rows)."""
    out = np.zeros_like(a)
    nd = a.ndim
    first = a[_sl(nd, ax, slice(0, 1))]
    last = a[_sl(nd, ax, slice(-1, None))]
    mid = a[_sl(nd, ax, slice(1, -1))] / (2.0 * h)
    out[_sl(nd, ax, slice(0, 1))] -= first / h
    out[_sl(nd, ax, slice(1, 2))] += first / h
    out[_sl(nd, ax, slice(None, -2))] -= mid
    out[_sl(nd, ax, slice(2, None))] += mid
    out[_sl(nd, ax, slice(-2, -1))] -= last / h
    out[_sl(nd, ax, slice(-1, None))] += last / h
    return out


# ---------------------------------------------------------------------------
# first-order operators as term lists (out_slot, in_slot, scale, axis)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def d_terms(n: int, p: int) -> tuple[tuple[int, int, float, int], ...]:
    """Terms of d on degree-p forms over R^n via prepend signs."""
    if p >= n:
        return ()
    pos_out = index_positions(n, p + 1)
    terms = []
    for s, idx in enumerate(increasing_indices(n, p)):
        for j in range(1, n + 1):
            signed = prepend(j, idx, n)
            if signed.sign:
                terms.append((pos_out[signed.index], s, float(signed.sign), j - 1))
    return tuple(terms)


@lru_cache(maxsize=None)
def complex_terms(n: int, bidegree: tuple[int, int], bar: bool):
    """Terms of the (0,1)- or (1,0)-raising complex operator on C^n.

    bar selects the antiholomorphic operator.  Wirtinger combinations:
    d/dz_k = (D_{2k-1} - i D_{2k}) / 2 and the conjugate pairing, with the
    interleaved convention z_k = x_{2k-1} + i x_{2k}.
    """
    s = 1.0j if bar else -1.0j

    def dz(out, inp, k, sign=1.0):
        # sign * d/dz_k (or d/dzbar_k when bar) applied to slot inp
        return [(out, inp, sign * 0.5, 2 * k), (out, inp, sign * s * 0.5, 2 * k + 1)]

    terms = []
    if bidegree == (0, 0):
        for k in range(n):
            terms += dz(k, 0, k)
    elif bidegree == (1, 0) and bar:
        # dzbar_k wedge dz_i = -dz_i wedge dzbar_k
        for i in range(n):
            for k in range(n):
                terms += dz(i * n + k, i, k, sign=-1.0)
    elif bidegree == (0, 1) and not bar:
        for k in range(n):
            for i in range(n):
                terms += dz(i * n + k, k, i)
    elif bidegree == (0, 1) and bar:
        pos = index_positions(n, 2)
        for j in range(n):
            for k in range(j + 1, n):
                q = pos[MultiIndex((j + 1, k + 1))]
                terms += dz(q, k, j) + dz(q, j, k, sign=-1.0)
    elif bidegree == (1, 0) and not bar:
        pos = index_positions(n, 2)
        for i in range(n):
            for k in range(i + 1, n):
                q = pos[MultiIndex((i + 1, k + 1))]
                terms += dz(q, k, i) + dz(q, i, k, sign=-1.0)
    else:
        raise ValidationError(f"unsupported bidegree {bidegree}")
    return tuple(terms)


_RAISED = {  # output bidegree per (input bidegree, bar)
    ((0, 0), True): (0, 1), ((0, 0), False): (1, 0),
    ((1, 0), True): (1, 1), ((0, 1), False): (1, 1),
    ((0, 1), True): (0, 2), ((1, 0), False): (2, 0),
}


def apply_terms(terms, coeffs: np.ndarray, n_out: int, h: float, dtype=None) -> np.ndarray:
    out = np.zeros((n_out,) + coeffs.shape[1:], dtype=dtype or coeffs.dtype)
    for o, i, s, ax in terms:
        out[o] += s * diff_axis(coeffs[i], ax, h)
    return out


def mask_stencils(row_mask: np.ndarray, col_mask: np.ndarray, h: float,
                  transpose: bool = False) -> list[list[tuple]]:
    """Per-axis diagonals of diff_axis (or, with transpose, of diff_axis_t)
    restricted to row_mask rows and col_mask columns.

    Vectors on a mask are compact: one entry per mask node, in C order.
    For each axis the result holds pairs (index, coef) such that, for a
    col_mask vector v padded with one trailing zero slot,
    sum(coef * v[index]) is the stencil at every row node.  index is
    int32; columns outside col_mask point at the zero slot.  coef is a
    float where it is uniform over the live entries, else a row array.
    The stencil rows come from diff_axis applied to an identity matrix,
    so the box stencil keeps one definition.
    """
    shape = row_mask.shape
    n_col = int(col_mask.sum())
    col_pos = np.full(col_mask.size, n_col, dtype=np.int32)
    col_pos[col_mask.ravel()] = np.arange(n_col, dtype=np.int32)
    rows = np.flatnonzero(row_mask).astype(np.int32)
    out = []
    for ax, m in enumerate(shape):
        stride = int(np.prod(shape[ax + 1:]))
        mat = (diff_axis_t if transpose else diff_axis)(np.eye(m), 0, h)
        # the nonzeros of each 1-D row, columns ascending: diagonal j holds
        # the j-th of every row (0 where a row has fewer)
        r, c = np.nonzero(mat)
        j = np.arange(r.size) - np.searchsorted(r, r)
        cols = np.zeros((j.max() + 1, m), dtype=np.int32)
        cols[j, r] = c
        coefs = np.zeros((j.max() + 1, m))
        coefs[j, r] = mat[r, c]
        at = rows // stride % m  # position of each row node along the axis
        diagonals = []
        for col, coef in zip(cols, coefs):
            step = (col - np.arange(m, dtype=np.int32)) * stride
            index = col_pos[rows + step[at]]
            used = np.zeros(m, dtype=bool)
            used[at[index != n_col]] = True
            values = coef[used]
            if not values.size:
                continue
            if (values == values[0]).all():
                diagonals.append((index, float(values[0])))
            else:
                diagonals.append((index, coef[at]))
        out.append(diagonals)
    return out


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def d(u: RealForm) -> RealForm:
    """Exterior derivative.  Degree N input returns the empty degree-N+1
    form (identically zero)."""
    grid = u.grid
    n_out = num_indices(grid.dim, u.degree + 1)
    coeffs = apply_terms(d_terms(grid.dim, u.degree), u.coeffs, n_out, grid.h,
                         dtype=u.coeffs.dtype)
    return RealForm(grid, u.degree + 1, coeffs)


def delta(j: int, g: np.ndarray, weight: Weight, grid: Grid) -> np.ndarray:
    """delta_j g = dg/dx_j - phi_j g (j is 1-based to match the increasing
    multiindex convention)."""
    if not 1 <= j <= grid.dim:
        raise ValidationError(f"axis {j} outside 1..{grid.dim}")
    phi_j = weight.grad(grid.coords)[j - 1]
    return diff_axis(np.asarray(g, dtype=float), j - 1, grid.h) - phi_j * g


def t_star_formula(alpha: RealForm, weight: Weight) -> RealForm:
    """Formal weighted codifferential A_I = -sum_j delta_j alpha_{jI},
    evaluated in expanded form (no exp(+-phi) factors)."""
    grid = alpha.grid
    p = alpha.degree - 1
    if p < 0:
        raise ValidationError("codifferential needs degree >= 1")
    gradphi = weight.grad(grid.coords)
    out = np.zeros((num_indices(grid.dim, p),) + grid.shape)
    for o, i, s, ax in d_terms(grid.dim, p):
        a = alpha.coeffs[o]
        out[i] -= s * (diff_axis(a, ax, grid.h) - gradphi[ax] * a)
    return RealForm(grid, p, out)


def t_star_discrete(alpha: RealForm, weight: Weight, mask: np.ndarray | None = None) -> RealForm:
    """Exact matrix adjoint of d for the discrete weighted inner products.

    Pairing: <d u, alpha> over mask equals <u, t_star_discrete(alpha)>
    over the dilated mask, exactly in floating point, for every u
    supported on the dilated mask.  Defaults to the interior mask.  This
    is the adjoint of the operator the minimum-norm solver runs on.
    """
    from .minnorm import weighted_first_order_map
    grid = alpha.grid
    p = alpha.degree - 1
    if p < 0:
        raise ValidationError("adjoint of d needs degree >= 1")
    if mask is None:
        mask = grid.interior
    dof = _dilate(mask)
    n_in = num_indices(grid.dim, p)
    A = weighted_first_order_map(grid, weight, d_terms(grid.dim, p),
                                 n_in, num_indices(grid.dim, p + 1),
                                 eq_mask=mask, dof_mask=dof)
    return RealForm(grid, p, grid.expand(A.adjoint(grid.compact(alpha.coeffs, mask)), dof))


def dbar(u: ComplexForm) -> ComplexForm:
    """Antiholomorphic first-order operator on (0,0), (1,0), (0,1) forms."""
    key = (tuple(u.bidegree), True)
    if key not in _RAISED:
        raise ValidationError(f"dbar does not support bidegree {u.bidegree}")
    out_bd = _RAISED[key]
    n = u.n
    coeffs = apply_terms(complex_terms(n, tuple(u.bidegree), True), u.coeffs,
                         n_complex_coeffs(n, out_bd), u.grid.h, dtype=complex)
    return ComplexForm(u.grid, out_bd, coeffs)


def partial(u: ComplexForm) -> ComplexForm:
    """Holomorphic first-order operator on (0,0), (0,1), (1,0) forms."""
    key = (tuple(u.bidegree), False)
    if key not in _RAISED:
        raise ValidationError(f"partial does not support bidegree {u.bidegree}")
    out_bd = _RAISED[key]
    n = u.n
    coeffs = apply_terms(complex_terms(n, tuple(u.bidegree), False), u.coeffs,
                         n_complex_coeffs(n, out_bd), u.grid.h, dtype=complex)
    return ComplexForm(u.grid, out_bd, coeffs)


def conj_form(f: ComplexForm) -> ComplexForm:
    """Complex conjugate form; swaps (p,q) with (q,p)."""
    bd = tuple(f.bidegree)
    if bd in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)):
        return ComplexForm(f.grid, bd[::-1], f.coeffs.conj())
    if bd == (1, 1):
        n = f.n
        mat = f.coeffs.reshape((n, n) + f.grid.shape)
        out = -np.conj(np.swapaxes(mat, 0, 1))
        return ComplexForm(f.grid, bd, out.reshape((n * n,) + f.grid.shape))
    raise ValidationError(f"unsupported bidegree {bd}")
