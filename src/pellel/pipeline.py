"""End-to-end solves: the weighted d-equation, the antiholomorphic
first-order equation, and their composition solving i d dbar u = f.

For a d-closed (1,1) right-hand side f the construction runs in three
stages.  Convert f to a real 2-form, solve dv = f_real with minimum
weighted norm (expected against the constant 1/(c(p+1))), split v into
conjugate (1,0)/(0,1) parts, solve dbar w = v^{0,1} (constant 2/c_levi
with c_levi = c/2), and assemble u = -i (w - conj w), which is real.  The
weighted norm of u is reported against 8/c**2 times the (1,1) norm of f.
Non-real f splits into real and imaginary parts, runs twice and combines
linearly.

All equations are imposed on the interior mask plus one ring of nodes;
unknowns carry one further ring.  Report norms integrate over the
equation mask, G with a collar that vanishes under refinement.  With
manufactured polynomial data this makes the sampled continuum solution an
exact discrete solution, so the solver residuals are limited by the
iteration tolerance, not by the discretization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bridge, calculus, forms
from .bridge import REAL_TOL
from .domain import Grid, Weight, estimate_c
from .errors import SolverError, ValidationError
from .forms import ComplexForm, RealForm, n_complex_coeffs
from .minnorm import SolveReport, solve_min_norm, weighted_first_order_map
from .multiindex import num_indices

DEFAULT_SLACK = 0.15  # headroom over the continuum constants at h = 1/64
CLOSEDNESS_FACTOR = 1e-2  # closedness gate: |df| <= factor * h * |f|


@dataclass
class PipelineReport:
    """Stage-by-stage record of one i d dbar solve."""

    c: float
    c_levi: float
    norm_f2: float
    norm_v2: float | None = None
    norm_w2: float | None = None
    norm_u2: float = 0.0
    bound_poincare: float = 0.0
    bound_dbar: float = 0.0
    bound_main: float = 0.0
    ratio: float = 0.0
    residual: float = 0.0
    realness: float = 0.0
    type_residual_20: float = 0.0
    type_residual_02: float = 0.0
    stage_poincare: SolveReport | None = None
    stage_dbar: SolveReport | None = None
    parts: tuple | None = None

    def to_dict(self) -> dict:
        return asdict(self)


STAGE_FAIL_RESIDUAL = 1e-2  # above this the stage result is not a solution


def _derivative_norm2(terms, values: np.ndarray, n_out: int, weight: Weight,
                      grid: Grid) -> float:
    """Norm over the equation mask of the first-order operator given by
    terms, applied to coefficients on the unknown nodes: every neighbour of
    an equation node is an unknown node, so this is the box operator's
    norm there."""
    return forms.compact_norm2(
        grid, calculus.mask_apply(grid, terms, values, n_out, grid.mask_eq, grid.mask_dof),
        weight, grid.mask_eq)


def _check_grid(f, grid: Grid) -> None:
    if f.grid is not grid:
        raise ValidationError("the form lives on another grid than the one passed")


def _on_masks(f, grid: Grid, gated: bool):
    """The coefficients of f on the equation nodes, and on the unknown
    nodes when its stage gates it (else None)."""
    return (grid.compact(f.coeffs, grid.mask_eq),
            grid.compact(f.coeffs, grid.mask_dof) if gated else None)


def _gated_norm2(stage: str, rhs: np.ndarray, unknowns, closure, weight: Weight,
                 grid: Grid) -> float:
    """The norm of a stage's right-hand side rhs on the equation nodes.
    Unless closure is None, the right-hand side, given on the unknown
    nodes, must first pass the closedness gate
    |closure f| <= factor * h * |f|, where closure is (terms, n_out) of the
    first-order operator that annihilates closed right-hand sides."""
    rhs_norm2 = forms.compact_norm2(grid, rhs, weight, grid.mask_eq)
    if closure is not None:
        terms, n_out = closure
        residual = math.sqrt(_derivative_norm2(terms, unknowns, n_out, weight, grid))
        limit = CLOSEDNESS_FACTOR * grid.h * math.sqrt(rhs_norm2)
        if residual > limit:
            raise ValidationError(f"{stage} right-hand side is not closed: "
                                  f"residual {residual:.3e} exceeds {limit:.3e}")
    return rhs_norm2


def _solve_stage(stage: str, rhs: np.ndarray, rhs_norm2: float, form_type, out_degree,
                 terms, n_in: int, c: float, bound: float, weight: Weight, grid: Grid,
                 tol: float, maxiter: int | None):
    """Minimum-norm solve of the first-order equation given by terms for
    the compact right-hand side rhs on the equation nodes; the solution is
    a form_type of out_degree, and the report's norms and ratios are
    measured on the equation mask."""
    dtype = complex if form_type is ComplexForm else float
    # the map is released when the solve returns
    u, report = solve_min_norm(
        weighted_first_order_map(grid, weight, terms, n_in, len(rhs),
                                 grid.mask_eq, grid.mask_dof, dtype=dtype),
        rhs, tol=tol, maxiter=maxiter)
    if report.relative_residual > STAGE_FAIL_RESIDUAL:
        raise SolverError(
            f"stage '{stage}' failed: relative residual "
            f"{report.relative_residual:.3e} after {report.iterations} iterations "
            f"({report.reason})")
    report.c = c
    report.rhs_norm2 = rhs_norm2
    report.solution_norm2 = forms.compact_norm2(
        grid, grid.restrict(u, grid.mask_dof, grid.mask_eq), weight, grid.mask_eq)
    report.bound = bound
    report.ratio = report.solution_norm2 / rhs_norm2 if rhs_norm2 else 0.0
    report.bound_ratio = report.ratio / report.bound
    return form_type(grid, out_degree, grid.expand(u, grid.mask_dof)), report


def solve_poincare(f: RealForm, weight: Weight, grid: Grid,
                   tol: float = 1e-8, maxiter: int | None = None
                   ) -> tuple[RealForm, SolveReport]:
    """Minimum-weighted-norm u with du = f for a d-closed (p+1)-form f.

    The reported ratio |u|^2 / |f|^2 is stored against the solvability
    bound 1/(c(p+1)).
    """
    if not isinstance(f, RealForm):
        raise ValidationError(f"d-equation solve expects a real form, got {type(f).__name__}")
    p = f.degree - 1
    if not 0 <= p <= grid.dim - 1:
        raise ValidationError(f"degree {f.degree} outside 1..{grid.dim}")
    _check_grid(f, grid)
    # the masks, the gate, the map and the norms share the node indices,
    # tables and phi
    with grid.sharing():
        c = estimate_c(weight, grid)
        closure = (calculus.d_terms(grid.dim, p + 1), num_indices(grid.dim, p + 2))
        rhs, unknowns = _on_masks(f, grid, gated=True)
        del f  # the stage holds its right-hand side on the mask nodes only
        rhs_norm2 = _gated_norm2("poincare", rhs, unknowns, closure, weight, grid)
        del unknowns
        return _solve_stage("poincare", rhs, rhs_norm2, RealForm, p,
                            calculus.d_terms(grid.dim, p), num_indices(grid.dim, p), c,
                            1.0 / (c * (p + 1)), weight, grid, tol, maxiter)


def solve_dbar(g: ComplexForm, weight: Weight, grid: Grid,
               tol: float = 1e-8, maxiter: int | None = None,
               check_closed: bool = True) -> tuple[ComplexForm, SolveReport]:
    """Minimum-weighted-norm scalar w with dbar w = g for a closed (0,1)
    form g; the ratio is reported against 2/c_levi with c_levi = c/2."""
    if not isinstance(g, ComplexForm) or tuple(g.bidegree) != (0, 1):
        raise ValidationError("dbar solve expects a (0,1) form")
    _check_grid(g, grid)
    n = g.n
    closure = None
    if check_closed and n >= 2:
        closure = (calculus.complex_terms(n, (0, 1), True), n_complex_coeffs(n, (0, 2)))
    with grid.sharing():
        c = estimate_c(weight, grid)
        rhs, unknowns = _on_masks(g, grid, gated=closure is not None)
        del g
        rhs_norm2 = _gated_norm2("dbar", rhs, unknowns, closure, weight, grid)
        del unknowns
        return _solve_stage("dbar", rhs, rhs_norm2, ComplexForm, (0, 0),
                            calculus.complex_terms(n, (0, 0), True), 1, c, 4.0 / c,
                            weight, grid, tol, maxiter)


def _relative_asymmetry(f: ComplexForm) -> float:
    asym, scale = bridge._asymmetry(f)
    return asym / scale


def solve_poincare_lelong(f: ComplexForm, weight: Weight, grid: Grid,
                          tol: float = 1e-10, maxiter: int | None = None
                          ) -> tuple[ComplexForm, PipelineReport]:
    """Solve i d dbar u = f for a d-closed (1,1) form f in the weighted
    space over G; u is the composition of the minimum-norm stages.

    Outside the two stage solves the pipeline works on compact vectors
    over the grid's masks.  The closedness gate, the type residuals and
    the composed residual run on mask nodes through calculus.mask_apply,
    the kernel of the solvers' maps; they, the maps and the norms share
    the stencil tables and the weight's values for the call.  Each stage
    releases its box right-hand side once it has taken it on the mask
    nodes."""
    if not isinstance(f, ComplexForm) or tuple(f.bidegree) != (1, 1):
        raise ValidationError("expected a (1,1) form")
    _check_grid(f, grid)
    with grid.sharing():
        asymmetry = _relative_asymmetry(f)
        if asymmetry <= REAL_TOL:
            return _solve_real11(f, asymmetry, weight, grid, tol, maxiter)
        # the real part (f + conj f) / 2 and the imaginary part (f - conj f) / (2i)
        (u1, rep1), (u2, rep2) = (
            _solve_part(f, combine, scale, weight, grid, tol, maxiter)
            for combine, scale in ((np.add, 0.5), (np.subtract, -0.5j)))
        u = ComplexForm(grid, (0, 0), u1.coeffs + 1j * u2.coeffs)
        del u1, u2
        # the combined report carries the worse of the two parts
        return u, _assemble_report(
            grid.compact(f.coeffs, grid.interior), u, weight, grid, rep1.c,
            forms.norm2(f, weight, grid.mask_eq), parts=(rep1, rep2),
            **{name: max(getattr(rep1, name), getattr(rep2, name))
               for name in ("realness", "type_residual_20", "type_residual_02")})


def _solve_part(f: ComplexForm, combine, scale: complex, weight: Weight, grid: Grid,
                tol: float, maxiter: int | None) -> tuple[ComplexForm, PipelineReport]:
    """The three stages for the real (1,1) form scale * combine(f, conj f),
    built one coefficient at a time and released on return."""
    coeffs = np.empty_like(f.coeffs)
    for k, fk in enumerate(f.coeffs):
        combine(fk, calculus.conj_coefficient(f, k), out=coeffs[k])
        coeffs[k] *= scale
    part = ComplexForm(grid, (1, 1), coeffs)
    return _solve_real11(part, _relative_asymmetry(part), weight, grid, tol, maxiter)


def _solve_real11(f: ComplexForm, asymmetry: float, weight: Weight, grid: Grid,
                  tol: float, maxiter: int | None) -> tuple[ComplexForm, PipelineReport]:
    """The three stages for a real (1,1) form f, whose relative asymmetry
    max |f - conj f| / max |f| the caller has measured; the report
    carries it as realness."""
    norm_f2 = forms.norm2(f, weight, grid.mask_eq)
    v01, rep_p, type_residuals = _poincare_split(f, norm_f2, weight, grid, tol, maxiter)
    # v^{0,1} is dbar-closed only up to the residual of the Poincare stage.
    # Its box form is passed as a temporary, so that the stage can release
    # it once taken on the mask nodes; the compact v01 stays alive through
    # the stage (in 2-D about the size of one box component)
    w, rep_d = solve_dbar(ComplexForm(grid, (0, 1), grid.expand(v01, grid.mask_dof)),
                          weight, grid, tol=tol, maxiter=maxiter, check_closed=False)
    del v01
    # u = -i (w - conj w) on the unknown nodes, expanded once
    w = grid.compact(w.coeffs, grid.mask_dof)
    u = ComplexForm(grid, (0, 0), grid.expand(-1j * (w - w.conj()), grid.mask_dof))
    del w
    return u, _assemble_report(
        grid.compact(f.coeffs, grid.interior), u, weight, grid, rep_p.c, norm_f2,
        norm_v2=rep_p.solution_norm2, norm_w2=rep_d.solution_norm2, realness=asymmetry,
        type_residual_20=type_residuals[0], type_residual_02=type_residuals[1],
        stage_poincare=rep_p, stage_dbar=rep_d)


def _poincare_split(f: ComplexForm, norm_f2: float, weight: Weight, grid: Grid,
                    tol: float, maxiter: int | None):
    """The d-stage for a real (1,1) form f and the (0,1) part of its
    solution v on the unknown nodes; also returns the stage report and the
    relative norms of the pure-type parts of dv, which vanish with dv - f.
    The real 2-form of f is a temporary that the stage releases once taken
    on the mask nodes, and v lives only until it is split there."""
    v, rep_p = solve_poincare(bridge.real11_to_real2(f, require_real=False), weight, grid,
                              tol=tol, maxiter=maxiter)
    n = grid.dim // 2
    v10, v01 = bridge.split_1form_coeffs(grid.compact(v.coeffs, grid.mask_dof), n)
    del v
    scale = math.sqrt(norm_f2) if norm_f2 else 1.0
    residuals = tuple(
        math.sqrt(_derivative_norm2(calculus.complex_terms(n, bidegree, bar), part,
                                    n_complex_coeffs(n, out), weight, grid)) / scale
        for part, bidegree, bar, out in ((v10, (1, 0), False, (2, 0)),
                                         (v01, (0, 1), True, (0, 2))))
    return v01, rep_p, residuals


def _composed_residual(f_int: np.ndarray, u: ComplexForm, grid: Grid) -> np.ndarray:
    """i partial dbar u - f on the interior nodes, for f given there.
    dbar u maps the unknown nodes to the equation nodes; partial runs on
    the same tables, on dbar u extended by zero to the unknown nodes, and
    keeps the interior rows, whose neighbours are all equation nodes."""
    n = grid.dim // 2
    eq, dof = grid.mask_eq, grid.mask_dof
    du = calculus.mask_apply(grid, calculus.complex_terms(n, (0, 0), True),
                             grid.compact(u.coeffs, dof), n, eq, dof)
    ddu = calculus.mask_apply(grid, calculus.complex_terms(n, (0, 1), False),
                              grid.extend(du, eq, dof), n_complex_coeffs(n, (1, 1)), eq, dof)
    resid = grid.restrict(ddu, eq, grid.interior)
    resid *= 1j
    resid -= f_int
    return resid


def _assemble_report(f_int: np.ndarray, u: ComplexForm, weight: Weight, grid: Grid,
                     c: float, norm_f2: float, **fields) -> PipelineReport:
    """The pipeline report of u for f given on the interior nodes (f_int)
    and its norm norm_f2 over the equation mask; fields are the report's
    stage records, realness and type residuals."""
    # the composed second-order residual is only equation-controlled on the
    # interior mask (one ring inside the dbar-stage equation mask)
    norm_f2_int = forms.compact_norm2(grid, f_int, weight, grid.interior)
    residual2 = forms.compact_norm2(grid, _composed_residual(f_int, u, grid), weight,
                                    grid.interior)
    residual = math.sqrt(residual2 / norm_f2_int) if norm_f2_int else 0.0
    norm_u2 = forms.norm2(u, weight, grid.mask_eq)
    return PipelineReport(
        c=c, c_levi=0.5 * c,
        norm_f2=norm_f2, norm_u2=norm_u2,
        bound_poincare=1.0 / (2.0 * c),
        bound_dbar=4.0 / c,
        bound_main=8.0 / c**2,
        ratio=norm_u2 / norm_f2 if norm_f2 else 0.0,
        residual=residual, **fields)


def corollary_constant(grid: Grid, f: ComplexForm | None = None) -> tuple[float, dict]:
    """Unweighted solvability constant from the weighted pipeline.

    Runs the construction with phi = |x|^2 (convexity constant 2), at
    the pipeline's default tolerance, and sandwiches the weighted
    estimate between exp(-max phi) and exp(-min phi) over G, giving the
    explicit constant c_Omega = 2 exp(max phi - min phi), 2 exp(R^2) on a
    radius-R ball.
    Returns c_Omega and the measured unweighted norms and ratio.
    """
    weight = Weight.abs2(grid.dim)
    if f is None:
        f = standard_11_form(grid)
    with grid.sharing():  # the pipeline and the norms share phi and the node indices
        phi = grid.phi_values(weight, grid.interior)
        c_omega = 2.0 * math.exp(float(phi.max()) - float(phi.min()))
        u, report = solve_poincare_lelong(f, weight, grid)
        zero = Weight.zero(grid.dim)
        norm_u2 = forms.norm2(u, zero, grid.mask_eq)
        norm_f2 = forms.norm2(f, zero, grid.mask_eq)
    ratio = norm_u2 / norm_f2 if norm_f2 else 0.0
    return c_omega, {
        "c_omega": c_omega,
        "norm_u2_unweighted": norm_u2,
        "norm_f2_unweighted": norm_f2,
        "ratio_unweighted": ratio,
        "weighted_report": report.to_dict(),
    }


def standard_11_form(grid: Grid) -> ComplexForm:
    """i dz_1 wedge dzbar_1 with unit coefficient; the reference d-closed
    (1,1) input in any complex dimension."""
    f = ComplexForm.zeros(grid, (1, 1))
    f.coeffs[0] = 1j
    return f
