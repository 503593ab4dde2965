"""Discrete differential operators: d, its weighted adjoints, and the
complex operators, the pure-type parts of d, on the same stencils.

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
from .forms import _BIDEGREES, ComplexForm, RealForm, expansion_matrix, n_complex_coeffs
from .multiindex import increasing_indices, index_positions, num_indices, sort_signature


def _sl(ndim, ax, s):
    return tuple(s if i == ax else slice(None) for i in range(ndim))


def diff_axis(a: np.ndarray, ax: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along one axis: centered inside, one-sided at the
    two box faces.  Written into out when given (an array of a's shape)."""
    if out is None:
        out = np.empty_like(a)
    nd = a.ndim
    mid = out[_sl(nd, ax, slice(1, -1))]
    np.subtract(a[_sl(nd, ax, slice(2, None))], a[_sl(nd, ax, slice(None, -2))], out=mid)
    mid /= 2.0 * h
    for face, inner, outer in ((slice(0, 1), slice(1, 2), slice(0, 1)),
                               (slice(-1, None), slice(-1, None), slice(-2, -1))):
        end = out[_sl(nd, ax, face)]
        np.subtract(a[_sl(nd, ax, inner)], a[_sl(nd, ax, outer)], out=end)
        end /= h
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
    """Terms of d on degree-p forms over R^n: dx_j ^ dx_I = s dx_J for
    (J, s) = sort_signature((j,) + I), the one table of these signs."""
    if p >= n:
        return ()
    pos_out = index_positions(n, p + 1)
    terms = []
    for s, idx in enumerate(increasing_indices(n, p)):
        for j in range(1, n + 1):
            signed = sort_signature((j,) + idx, n)
            if signed.sign:
                terms.append((pos_out[signed.index], s, float(signed.sign), j - 1))
    return tuple(terms)


def _raised(bidegree: tuple[int, int], bar: bool) -> tuple[int, int]:
    """Output bidegree of dbar (bar) or partial on a supported bidegree; the
    output must be supported too."""
    p, q = bidegree
    out = (p, q + 1) if bar else (p + 1, q)
    if out not in _BIDEGREES:
        raise ValidationError(
            f"{'dbar' if bar else 'partial'} does not support bidegree {bidegree}")
    return out


@lru_cache(maxsize=None)
def complex_terms(n: int, bidegree: tuple[int, int], bar: bool):
    """Terms of the (0,1)- or (1,0)-raising complex operator on C^n (bar
    selects the antiholomorphic one), the (p,q+1) or (p+1,q) part of d:
    along axis ax, E_out^H D_ax E_in / 2^(p+q+1) for E = expansion_matrix
    and D_ax the terms of d_terms(2n, p+q) on ax.  Listed by input slot,
    then output slot, then axis."""
    E_out = expansion_matrix(n, _raised(bidegree, bar))
    E_in = expansion_matrix(n, bidegree)
    D = np.zeros((2 * n, len(E_out), len(E_in)))
    for o, i, s, ax in d_terms(2 * n, sum(bidegree)):
        D[ax, o, i] = s
    T = (E_out.conj().T @ D @ E_in).transpose(2, 1, 0) / 2 ** (sum(bidegree) + 1)
    return tuple((int(o), int(i), complex(T[i, o, ax]), int(ax))
                 for i, o, ax in zip(*np.nonzero(T)))


def apply_terms(terms, coeffs: np.ndarray, n_out: int, h: float, dtype=None) -> np.ndarray:
    """The box operator given by terms; each term is staged in one scratch
    box component and accumulated in place."""
    out = np.empty((n_out,) + coeffs.shape[1:], dtype=dtype or coeffs.dtype)
    scratch = np.empty(coeffs.shape[1:], dtype=out.dtype)
    for o in range(n_out):
        out[o].fill(0)
        for to, i, s, ax in terms:
            if to == o:
                diff_axis(coeffs[i], ax, h, out=scratch)
                scratch *= s
                out[o] += scratch
    return out


def mask_stencils(row_mask: np.ndarray, col_mask: np.ndarray, h: float,
                  transpose: bool = False) -> list[list[tuple]]:
    """Per-axis diagonals of diff_axis (or, with transpose, of diff_axis_t)
    restricted to row_mask rows and col_mask columns.

    Vectors on a mask are compact: one entry per mask node, in C order.
    For each axis the result holds pairs (index, coef) such that, for a
    col_mask vector v padded with one trailing zero slot,
    sum(coef * v[index]) is the stencil at every row node.  index is
    np.intp, the type np.take indexes with, so a gather converts nothing;
    columns outside col_mask point at the zero slot.  coef is a float
    where it is uniform over the live entries, else a row array.
    The stencil rows come from diff_axis applied to an identity matrix,
    so the box stencil keeps one definition.
    """
    shape = row_mask.shape
    n_col = int(col_mask.sum())
    col_pos = np.full(col_mask.size, n_col, dtype=np.intp)
    col_pos[col_mask.ravel()] = np.arange(n_col, dtype=np.intp)
    rows = np.flatnonzero(row_mask)
    out = []
    for ax, m in enumerate(shape):
        stride = int(np.prod(shape[ax + 1:]))
        mat = (diff_axis_t if transpose else diff_axis)(np.eye(m), 0, h)
        # the nonzeros of each 1-D row, columns ascending: diagonal j holds
        # the j-th of every row (0 where a row has fewer)
        r, c = np.nonzero(mat)
        j = np.arange(r.size) - np.searchsorted(r, r)
        cols = np.zeros((j.max() + 1, m), dtype=np.intp)
        cols[j, r] = c
        coefs = np.zeros((j.max() + 1, m))
        coefs[j, r] = mat[r, c]
        at = rows // stride % m  # position of each row node along the axis
        diagonals = []
        for col, coef in zip(cols, coefs):
            step = (col - np.arange(m)) * stride
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


def stencil_plan(terms, stencils, n_rows: int, adjoint: bool = False) -> list[tuple]:
    """The operator given by terms on the tables of mask_stencils,
    compiled for apply_plan: for each output component, a scale and its
    gathers (input component, index, combine, unit).

    Output component o is the sum of s * coef * v[i][index] over the
    terms (o, i, s, ax) and the diagonals (index, coef) of stencils[ax].
    With adjoint, o and i swap roles and s is conjugated: on transposed
    tables this is the exact transpose.  The scale of a component is the
    factor s * coef of its first gather when that is a number, and each
    gather keeps its factor relative to the scale: a sign (combine is
    np.add or np.subtract, unit None) where the ratio is +-1, else the
    ratio as unit.
    """
    rows = [[] for _ in range(n_rows)]
    for o, i, s, ax in terms:
        dst, src, factor = (i, o, np.conj(s)) if adjoint else (o, i, s)
        rows[dst] += [(src, index, factor * coef) for index, coef in stencils[ax]]
    plan = []
    for row in rows:
        scale = row[0][2] if row and np.ndim(row[0][2]) == 0 else 1.0
        gathers = []
        for src, index, factor in row:
            unit = factor / scale  # exactly 1 for the first gather of a number scale
            if np.ndim(unit) == 0 and unit in (1, -1):
                gathers.append((src, index, np.add if unit == 1 else np.subtract, None))
            else:
                gathers.append((src, index, np.add, unit))
        plan.append((scale, gathers))
    return plan


def apply_plan(plan, v: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Run a stencil_plan: v holds one input component per row, each
    followed by the zero slot of mask_stencils, and out one output
    component per row.  The first gather of a component writes straight
    into it, the others go through scratch (a vector of out's row length
    and v's dtype) and add by sign or by unit; the scale multiplies each
    component once, at the end."""
    for row, (scale, gathers) in zip(out, plan):
        if not gathers:
            row.fill(0)
            continue
        for k, (src, index, combine, unit) in enumerate(gathers):
            # the indices are in range by construction; "clip" skips the check
            t = v[src].take(index, out=scratch if k else row, mode="clip")
            if unit is not None:
                t *= unit
            if k:
                combine(row, t, out=row)
        if scale != 1:
            row *= scale
    return out


def mask_apply(grid: Grid, terms, u: np.ndarray, n_out: int, row_mask: np.ndarray,
               col_mask: np.ndarray) -> np.ndarray:
    """The operator given by terms on compact vectors: u holds (n_in,
    #col_mask nodes), the result (n_out, #row_mask nodes).  This is the box
    operator applied to u extended by zero, read on row_mask; where
    col_mask holds every neighbour of row_mask (as mask_eq does for the
    interior, and mask_dof for mask_eq), it equals the box operator of any
    form that agrees with u on col_mask, to rounding.  The tables come
    from grid.stencils, and the arithmetic is the one the solvers' maps
    run (apply_plan)."""
    stencils = grid.stencils(row_mask, col_mask)
    dtype = np.result_type(u, *(s for _, _, s, _ in terms))
    v = np.zeros((len(u), u.shape[1] + 1), dtype=dtype)
    v[:, :-1] = u
    n_rows = int(np.count_nonzero(row_mask))
    return apply_plan(stencil_plan(terms, stencils, n_out), v,
                      np.empty((n_out, n_rows), dtype=dtype), np.empty(n_rows, dtype=dtype))


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


def _complex_derivative(u: ComplexForm, bar: bool) -> ComplexForm:
    """dbar u when bar is set, partial u otherwise."""
    out_bd = _raised(u.bidegree, bar)
    coeffs = apply_terms(complex_terms(u.n, u.bidegree, bar), u.coeffs,
                         n_complex_coeffs(u.n, out_bd), u.grid.h, dtype=complex)
    return ComplexForm(u.grid, out_bd, coeffs)


def dbar(u: ComplexForm) -> ComplexForm:
    """Antiholomorphic first-order operator on (0,0), (1,0), (0,1) forms."""
    return _complex_derivative(u, True)


def partial(u: ComplexForm) -> ComplexForm:
    """Holomorphic first-order operator on (0,0), (0,1), (1,0) forms."""
    return _complex_derivative(u, False)


@lru_cache(maxsize=None)
def conj_layout(n: int, bidegree: tuple[int, int]) -> tuple[tuple[int, ...], int]:
    """For each position of the (q,p) layout, the position in the (p,q)
    layout that its conjugate comes from, and the sign s of
    E_(q,p)^H conj(E_(p,q)) = s 2^(p+q) P, P a permutation matrix."""
    M = expansion_matrix(n, bidegree[::-1]).conj().T @ expansion_matrix(n, bidegree).conj()
    sources = np.nonzero(M)[1]
    # (2,0) and (0,2) in C^1 have no basis form, so no entry to read a sign from
    return tuple(sources.tolist()), int(np.sign(M[0, sources[0]].real)) if sources.size else 1


def conj_coefficient(f: ComplexForm, k: int) -> np.ndarray:
    """Coefficient k of conj_form(f), computed alone (one box component)."""
    sources, sign = conj_layout(f.n, f.bidegree)
    out = np.conj(f.coeffs[sources[k]])
    return np.negative(out, out=out) if sign < 0 else out


def conj_form(f: ComplexForm) -> ComplexForm:
    """Complex conjugate form; swaps (p,q) with (q,p) by
    conj(dz_I wedge dzbar_J) = (-1)^(|I||J|) dz_J wedge dzbar_I."""
    p, q = f.bidegree
    out = np.empty((n_complex_coeffs(f.n, (q, p)),) + f.grid.shape, dtype=complex)
    for k in range(len(out)):
        out[k] = conj_coefficient(f, k)
    return ComplexForm(f.grid, (q, p), out)
