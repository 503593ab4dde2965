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
unknowns carry one further ring.  With manufactured polynomial data this
makes the sampled continuum solution an exact discrete solution, so the
solver residuals are limited by the iteration tolerance, not by the
discretization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bridge, calculus, forms
from .domain import Grid, Weight, estimate_c
from .errors import SolverError, ValidationError
from .forms import ComplexForm, RealForm
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


def _checked_norm2(form, weight: Weight, mask: np.ndarray) -> float:
    """Weighted norm over mask; a form that is nonzero on the mask but
    whose norm underflows to 0 raises instead of passing a check vacuously."""
    norm = forms.norm2(form, weight, mask)
    if norm == 0.0 and np.any(form.grid.compact(form.coeffs, mask)):
        raise ValidationError(
            "weighted norm underflows to 0 for a form that is nonzero on the mask; "
            "exp(-phi) vanishes there in double precision")
    return norm


def _report_norm2(form, weight: Weight, grid: Grid) -> float:
    """Norms in solve reports integrate over the equation mask: the
    discrete domain on which the equation is imposed (G plus a one-node
    collar that vanishes under refinement)."""
    return _checked_norm2(form, weight, grid.mask_eq)


def _require_converged(report: SolveReport, stage: str) -> None:
    if report.relative_residual > STAGE_FAIL_RESIDUAL:
        raise SolverError(
            f"stage '{stage}' failed: relative residual "
            f"{report.relative_residual:.3e} after {report.iterations} iterations "
            f"({report.reason})")


def _solve_stage(stage: str, rhs, closure, out_degree, terms, n_in: int,
                 c: float, bound: float, weight: Weight, grid: Grid, tol: float,
                 maxiter: int | None):
    """Minimum-norm solve of the first-order equation given by terms, with
    the rhs's form type for the solution; the report's norms and ratios
    are measured on the equation mask.  Unless closure is None, the rhs
    must first pass the closedness gate |closure(rhs)| <= factor * h * |rhs|.
    The solver runs on compact vectors over the equation and unknown masks."""
    rhs_norm2 = _report_norm2(rhs, weight, grid)
    if closure is not None:
        residual = math.sqrt(_report_norm2(closure(rhs), weight, grid))
        limit = CLOSEDNESS_FACTOR * grid.h * math.sqrt(rhs_norm2)
        if residual > limit:
            raise ValidationError(f"{stage} right-hand side is not closed: "
                                  f"residual {residual:.3e} exceeds {limit:.3e}")
    dtype = complex if isinstance(rhs, ComplexForm) else float
    A = weighted_first_order_map(
        grid, weight, terms, n_in, rhs.coeffs.shape[0], grid.mask_eq, grid.mask_dof,
        dtype=dtype)
    u, report = solve_min_norm(A, grid.compact(rhs.coeffs, grid.mask_eq), tol=tol,
                               maxiter=maxiter)
    _require_converged(report, stage)
    solution = type(rhs)(grid, out_degree, grid.expand(u, grid.mask_dof))
    report.c = c
    report.rhs_norm2 = rhs_norm2
    report.solution_norm2 = _report_norm2(solution, weight, grid)
    report.bound = bound
    report.ratio = report.solution_norm2 / rhs_norm2 if rhs_norm2 else 0.0
    report.bound_ratio = report.ratio / report.bound
    return solution, report


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
    c = estimate_c(weight, grid.domain, grid)
    return _solve_stage("poincare", f, calculus.d, p, calculus.d_terms(grid.dim, p),
                        num_indices(grid.dim, p), c, 1.0 / (c * (p + 1)),
                        weight, grid, tol, maxiter)


def solve_dbar(g: ComplexForm, weight: Weight, grid: Grid,
               tol: float = 1e-8, maxiter: int | None = None,
               check_closed: bool = True) -> tuple[ComplexForm, SolveReport]:
    """Minimum-weighted-norm scalar w with dbar w = g for a closed (0,1)
    form g; the ratio is reported against 2/c_levi with c_levi = c/2."""
    if not isinstance(g, ComplexForm) or tuple(g.bidegree) != (0, 1):
        raise ValidationError("dbar solve expects a (0,1) form")
    c = estimate_c(weight, grid.domain, grid)
    c_levi = 0.5 * c
    closure = calculus.dbar if check_closed and g.n >= 2 else None
    return _solve_stage("dbar", g, closure, (0, 0), calculus.complex_terms(g.n, (0, 0), True),
                        1, c, 2.0 / c_levi, weight, grid, tol, maxiter)


def _is_real11(f: ComplexForm, tol: float = 1e-10) -> bool:
    diff = f.coeffs - calculus.conj_form(f).coeffs
    scale = max(float(np.abs(f.coeffs).max()), 1e-300)
    return float(np.abs(diff).max()) <= tol * scale


def solve_poincare_lelong(f: ComplexForm, weight: Weight, grid: Grid,
                          tol: float = 1e-10, maxiter: int | None = None
                          ) -> tuple[ComplexForm, PipelineReport]:
    """Solve i d dbar u = f for a d-closed (1,1) form f in the weighted
    space over G; u is the composition of the minimum-norm stages."""
    if not isinstance(f, ComplexForm) or tuple(f.bidegree) != (1, 1):
        raise ValidationError("expected a (1,1) form")
    if _is_real11(f):
        return _solve_real11(f, weight, grid, tol, maxiter)
    f_conj = calculus.conj_form(f)
    u1, rep1 = _solve_real11(0.5 * (f + f_conj), weight, grid, tol, maxiter)
    u2, rep2 = _solve_real11((-0.5j) * (f - f_conj), weight, grid, tol, maxiter)
    u = ComplexForm(grid, (0, 0), u1.coeffs + 1j * u2.coeffs)
    report = _assemble_report(f, u, weight, grid, rep1.c, _report_norm2(f, weight, grid))
    report.parts = (rep1, rep2)
    return u, report


def _solve_real11(f: ComplexForm, weight: Weight, grid: Grid, tol: float,
                  maxiter: int | None) -> tuple[ComplexForm, PipelineReport]:
    """The three stages for a real (1,1) form f; the caller has tested
    its realness."""
    norm_f2 = _report_norm2(f, weight, grid)
    g = bridge.real11_to_real2(f, require_real=False)
    v, rep_p = solve_poincare(g, weight, grid, tol=tol, maxiter=maxiter)
    v10, v01 = bridge.split_1form(v)
    # v^{0,1} is dbar-closed only up to the residual of the Poincare stage
    w, rep_d = solve_dbar(v01, weight, grid, tol=tol, maxiter=maxiter,
                          check_closed=False)
    u = ComplexForm(grid, (0, 0), -1j * (w.coeffs - w.coeffs.conj()))

    report = _assemble_report(f, u, weight, grid, rep_p.c, norm_f2)
    report.realness = float(np.abs(u.coeffs.imag).max())
    report.stage_poincare = rep_p
    report.stage_dbar = rep_d
    report.norm_v2 = rep_p.solution_norm2
    report.norm_w2 = rep_d.solution_norm2
    # bookkeeping of the pure-type parts of dv: both vanish with dv - f
    scale = math.sqrt(norm_f2) if norm_f2 else 1.0
    report.type_residual_20 = math.sqrt(
        _report_norm2(calculus.partial(v10), weight, grid)) / scale
    report.type_residual_02 = math.sqrt(
        _report_norm2(calculus.dbar(v01), weight, grid)) / scale
    return u, report


def _assemble_report(f: ComplexForm, u: ComplexForm, weight: Weight, grid: Grid,
                     c: float, norm_f2: float) -> PipelineReport:
    # the composed second-order residual is only equation-controlled on the
    # interior mask (one ring inside the dbar-stage equation mask)
    resid_form = 1j * calculus.partial(calculus.dbar(u)) - f
    norm_f2_int = _checked_norm2(f, weight, grid.interior)
    residual = (math.sqrt(forms.norm2(resid_form, weight, grid.interior) / norm_f2_int)
                if norm_f2_int else 0.0)
    norm_u2 = _report_norm2(u, weight, grid)
    return PipelineReport(
        c=c, c_levi=0.5 * c,
        norm_f2=norm_f2, norm_u2=norm_u2,
        bound_poincare=1.0 / (2.0 * c),
        bound_dbar=4.0 / c,
        bound_main=8.0 / c**2,
        ratio=norm_u2 / norm_f2 if norm_f2 else 0.0,
        residual=residual,
    )


def corollary_constant(domain, grid: Grid, f: ComplexForm | None = None,
                       tol: float = 1e-10) -> tuple[float, dict]:
    """Unweighted solvability constant from the weighted pipeline.

    Runs the construction with phi = |x|^2 (convexity constant 2) and
    sandwiches the weighted estimate between exp(-max phi) and
    exp(-min phi) over G, giving the explicit constant
    c_Omega = 2 exp(max phi - min phi), 2 exp(R^2) on a radius-R ball.
    Returns c_Omega and the measured unweighted norms and ratio.
    """
    weight = Weight.abs2(grid.dim)
    if f is None:
        f = standard_11_form(grid)
    phi = weight.phi(grid.compact(grid.coords, grid.interior))
    c_omega = 2.0 * math.exp(float(phi.max()) - float(phi.min()))
    u, report = solve_poincare_lelong(f, weight, grid, tol=tol)
    zero = Weight.zero(grid.dim)
    norm_u2 = _report_norm2(u, zero, grid)
    norm_f2 = _report_norm2(f, zero, grid)
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
