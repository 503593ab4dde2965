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
from dataclasses import dataclass

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
        out = {k: v for k, v in self.__dict__.items()
               if k not in ("stage_poincare", "stage_dbar", "parts")}
        out["stage_poincare"] = self.stage_poincare.to_dict() if self.stage_poincare else None
        out["stage_dbar"] = self.stage_dbar.to_dict() if self.stage_dbar else None
        if self.parts:
            out["parts"] = [p.to_dict() for p in self.parts]
        return out


def _closedness(df_norm2: float, f_norm2: float, h: float, label: str) -> None:
    lhs = math.sqrt(max(df_norm2, 0.0))
    rhs = CLOSEDNESS_FACTOR * h * math.sqrt(max(f_norm2, 0.0))
    if lhs > rhs:
        raise ValidationError(
            f"{label} is not closed: residual {lhs:.3e} exceeds {rhs:.3e}")


STAGE_FAIL_RESIDUAL = 1e-2  # above this the stage result is not a solution


def _checked_norm2(form, weight: Weight, mask: np.ndarray) -> float:
    """Weighted norm over mask; a form that is nonzero on the mask but
    whose norm underflows to 0 raises instead of passing a check vacuously."""
    norm = forms.norm2(form, weight, mask)
    if norm == 0.0 and np.any(form.coeffs[:, mask]):
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


def _solve_stage(stage: str, rhs, out_degree, terms, n_in: int, bound: float,
                 weight: Weight, grid: Grid, tol: float, maxiter: int | None):
    """Minimum-norm solve of the first-order equation given by terms, with
    the rhs's form type for the solution; the report's norms and ratios
    are measured on the equation mask.  The solver runs on compact
    vectors over the equation and unknown masks."""
    dtype = complex if isinstance(rhs, ComplexForm) else float
    A = weighted_first_order_map(
        grid, weight, terms, n_in, rhs.coeffs.shape[0], grid.mask_eq, grid.mask_dof,
        dtype=dtype)
    u, report = solve_min_norm(A, rhs.coeffs[:, grid.mask_eq], tol=tol, maxiter=maxiter)
    _require_converged(report, stage)
    arr = np.zeros((n_in,) + grid.shape, dtype=dtype)
    arr[:, grid.mask_dof] = u
    solution = type(rhs)(grid, out_degree, arr)
    report.rhs_norm2 = _report_norm2(rhs, weight, grid)
    report.solution_norm2 = _report_norm2(solution, weight, grid)
    report.bound = bound
    report.ratio = report.solution_norm2 / report.rhs_norm2 if report.rhs_norm2 else 0.0
    report.bound_ratio = report.ratio / report.bound
    return solution, report


def solve_poincare(f: RealForm, weight: Weight, grid: Grid,
                   tol: float = 1e-8, maxiter: int | None = None,
                   check_closed: bool = True) -> tuple[RealForm, SolveReport]:
    """Minimum-weighted-norm u with du = f for a d-closed (p+1)-form f.

    The reported ratio |u|^2 / |f|^2 is stored against the solvability
    bound 1/(c(p+1)).
    """
    p = f.degree - 1
    if not 0 <= p <= grid.dim - 1:
        raise ValidationError(f"degree {f.degree} outside 1..{grid.dim}")
    c = estimate_c(weight, grid.domain, grid)
    if check_closed:
        df = calculus.d(f)
        _closedness(_report_norm2(df, weight, grid), _report_norm2(f, weight, grid),
                    grid.h, "f")
    return _solve_stage("poincare", f, p, calculus.d_terms(grid.dim, p),
                        num_indices(grid.dim, p), 1.0 / (c * (p + 1)),
                        weight, grid, tol, maxiter)


def solve_dbar(g: ComplexForm, weight: Weight, grid: Grid,
               tol: float = 1e-8, maxiter: int | None = None,
               check_closed: bool = True) -> tuple[ComplexForm, SolveReport]:
    """Minimum-weighted-norm scalar w with dbar w = g for a closed (0,1)
    form g; the ratio is reported against 2/c_levi with c_levi = c/2."""
    if tuple(g.bidegree) != (0, 1):
        raise ValidationError("dbar solve expects a (0,1) form")
    n = g.n
    c = estimate_c(weight, grid.domain, grid)
    c_levi = 0.5 * c
    if check_closed and n >= 2:
        dg = calculus.dbar(g)
        _closedness(_report_norm2(dg, weight, grid), _report_norm2(g, weight, grid),
                    grid.h, "g")
    return _solve_stage("dbar", g, (0, 0), calculus.complex_terms(n, (0, 0), True),
                        1, 2.0 / c_levi, weight, grid, tol, maxiter)


def _is_real11(f: ComplexForm, tol: float = 1e-10) -> bool:
    diff = f.coeffs - calculus.conj_form(f).coeffs
    scale = max(float(np.abs(f.coeffs).max()), 1e-300)
    return float(np.abs(diff).max()) <= tol * scale


def solve_poincare_lelong(f: ComplexForm, weight: Weight, grid: Grid,
                          tol: float = 1e-10, maxiter: int | None = None,
                          check_closed: bool = True) -> tuple[ComplexForm, PipelineReport]:
    """Solve i d dbar u = f for a d-closed (1,1) form f in the weighted
    space over G; u is the composition of the minimum-norm stages."""
    if tuple(f.bidegree) != (1, 1):
        raise ValidationError("expected a (1,1) form")
    c = estimate_c(weight, grid.domain, grid)
    norm_f2 = _report_norm2(f, weight, grid)

    if not _is_real11(f):
        f1 = 0.5 * (f + calculus.conj_form(f))
        f2 = (-0.5j) * (f - calculus.conj_form(f))
        u1, rep1 = solve_poincare_lelong(f1, weight, grid, tol, maxiter, check_closed)
        u2, rep2 = solve_poincare_lelong(f2, weight, grid, tol, maxiter, check_closed)
        u = ComplexForm(grid, (0, 0), u1.coeffs + 1j * u2.coeffs)
        report = _assemble_report(f, u, weight, grid, c, norm_f2)
        report.parts = (rep1, rep2)
        return u, report

    g = bridge.real11_to_real2(f)
    if check_closed:
        dg = calculus.d(g)
        _closedness(_report_norm2(dg, weight, grid), _report_norm2(g, weight, grid),
                    grid.h, "f (as 2-form)")
    v, rep_p = solve_poincare(g, weight, grid, tol=tol, maxiter=maxiter,
                              check_closed=False)
    v10, v01 = bridge.split_1form(v)
    w, rep_d = solve_dbar(v01, weight, grid, tol=tol, maxiter=maxiter,
                          check_closed=False)
    u = ComplexForm(grid, (0, 0), -1j * (w.coeffs - w.coeffs.conj()))

    report = _assemble_report(f, u, weight, grid, c, norm_f2)
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
    realness = float(np.abs(u.coeffs.imag).max()) if _is_real11(f) else 0.0
    return PipelineReport(
        c=c, c_levi=0.5 * c,
        norm_f2=norm_f2, norm_u2=norm_u2,
        bound_poincare=1.0 / (2.0 * c),
        bound_dbar=4.0 / c,
        bound_main=8.0 / c**2,
        ratio=norm_u2 / norm_f2 if norm_f2 else 0.0,
        residual=residual,
        realness=realness,
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
    phi = weight.phi(grid.coords)[grid.interior]
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
