"""Minimum-weighted-norm solves of first-order grid equations A u = f.

Two Krylov methods share one entry point, solve_min_norm; the shape of
the map picks between them.

* A map with one equation component (n_out == 1: the top-degree d and
  dbar in C^1) carries a preconditioner for its normal operator
  A A* = A W_s^{-1} A^H W_t, and the solver runs preconditioned conjugate
  gradients on the dual system A A* y = f, with u = A* y (Craig's method).
  Every iterate lies in range(A*), so the limit is the minimum-norm
  solution for any symmetric positive definite preconditioner.  The
  preconditioner is a multigrid V-cycle (pellel.multigrid), so the
  iteration count stays about flat in h.
* Every other map runs conjugate gradients on the weighted normal
  equations in least-squares (CGLS) form: iterates build up in the range
  of the weighted adjoint, hence stay orthogonal to ker A, which
  characterizes the minimum-source-norm solution among all solutions of
  A u = P_range f.  Right-hand sides with a component outside the
  numerical range are handled implicitly: the residual floors at the
  distance to the range and the returned iterate solves the projected
  system (the same effect as an explicit least-squares pre-projection
  pass, without the extra solve).

Weights enter only through the inner products; vectors are never scaled
by exp(+-phi), so large weights cannot overflow the iteration.  Vectors
are compact: one entry per node of the unknown or equation mask, so the
iteration never touches the rest of the grid box.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .calculus import apply_plan, stencil_plan
from .domain import Grid, Weight
from .errors import NotInRangeError, ValidationError
from .multigrid import ParityMultigrid

logger = logging.getLogger(__name__)

RECOMPUTE_EVERY = 50  # iterations between recomputing the residual from f - A u
STALL_WINDOW = 60  # iterations without a new best residual before stopping


@dataclass
class LinearMap:
    """Matrix-free operator between weighted coefficient-array spaces.

    apply/adjoint act on arrays of shape source_shape/target_shape and
    return new arrays, which the solvers update in place; the adjoint is
    exact for the supplied weighted inner products.  For the
    maps of weighted_first_order_map these are compact arrays
    (n_in, #dof nodes) and (n_out, #eq nodes).  preconditioner, when set,
    maps a target array to an approximation of (A A*)^{-1} applied to it,
    and is self-adjoint and positive definite for dot_target;
    solve_min_norm then solves the dual system.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dot_source: Callable[[np.ndarray, np.ndarray], float]
    dot_target: Callable[[np.ndarray, np.ndarray], float]
    source_shape: tuple[int, ...]
    target_shape: tuple[int, ...]
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None

    def check_adjoint(self, rng: np.random.Generator, n_probes: int = 10,
                      complex_valued: bool = False) -> float:
        """Max relative deviation of <A u, b>_T from <u, A* b>_S on random
        probes; the LinearMap contract keeps this at rounding level."""
        worst = 0.0
        for _ in range(n_probes):
            u = rng.standard_normal(self.source_shape)
            b = rng.standard_normal(self.target_shape)
            if complex_valued:
                u = u + 1j * rng.standard_normal(self.source_shape)
                b = b + 1j * rng.standard_normal(self.target_shape)
            lhs = self.dot_target(self.apply(u), b)
            rhs = self.dot_source(u, self.adjoint(b))
            scale = abs(lhs) + abs(rhs) + 1e-300
            worst = max(worst, abs(lhs - rhs) / scale)
        return worst


@dataclass
class SolveReport:
    """Outcome of one minimum-norm solve.

    solve_min_norm fills the iteration record: the method that ran
    ("craig" or "cgls"), matvecs, its count of apply plus adjoint calls,
    seconds, its own wall time, and two relative residual histories with
    one entry per iteration: raw_residual_history, the residual of each
    iterate, and residual_history, the best of them so far.  The
    convexity constant c, the norms,
    bound and ratios stay None until a pipeline stage sets them; the norms
    then integrate over the equation mask against exp(-phi), unshifted.
    """

    iterations: int
    relative_residual: float
    method: str = "cgls"
    matvecs: int = 0
    seconds: float = 0.0
    c: float | None = None
    solution_norm2: float | None = None
    rhs_norm2: float | None = None
    bound: float | None = None
    ratio: float | None = None
    bound_ratio: float | None = None
    converged: bool = True
    reason: str = "converged"
    residual_history: list = field(default_factory=list)
    raw_residual_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _weighted_dot(x, y, w, vol):
    """Re sum(x conj(y) w) vol over arrays (rows, nodes), in real
    arithmetic: the imaginary parts add a term only when both are complex."""
    total = np.einsum("ij,ij,j->", x.real, y.real, w)
    if np.iscomplexobj(x) and np.iscomplexobj(y):
        total += np.einsum("ij,ij,j->", x.imag, y.imag, w)
    return float(total * vol)


def weighted_first_order_map(grid: Grid, weight: Weight, terms,
                             n_in: int, n_out: int,
                             eq_mask: np.ndarray, dof_mask: np.ndarray,
                             dtype=float) -> LinearMap:
    """Masked weighted operator from a first-order term list.

    The source holds the unknowns, shape (n_in, #dof_mask nodes), the
    target the equations, shape (n_out, #eq_mask nodes), nodes in C order
    of each mask: the layout of grid.compact and grid.expand.  A u is the
    box operator applied to u extended by zero, read on eq_mask; the
    adjoint is the exact transpose against the exp(-phi) h^N inner
    products on the two masks.  The weight is shift-normalized by its
    minimum over the unknowns so the exponentials stay tame for large phi.
    The shifted weights and the stencil tables come from the grid, so
    inside a grid.sharing() block the maps on the grid's own masks share
    them; apply and adjoint run them through calculus.apply_plan, and share
    one work buffer and one gather vector, so a map serves one thread at a
    time.

    With one equation component (n_out == 1) the map carries a
    preconditioner: one multigrid V-cycle for the axis-diagonal part of
    A W_s^{-1} A^H (pellel.multigrid), then W_t^{-1}.  The cycle is built
    for the axis scales c_a / max c_a, and its output divided by max c_a,
    so inside a sharing block the maps of one weight on the grid's own
    masks whose c_a differ by a factor share one hierarchy: in 2-D the
    top-degree d and dbar.  A map takes its hierarchy on its first call,
    so maps that are never solved do not pay for it, and keeps it, so
    outside a block it is built once per map; a complex map runs the real
    and imaginary parts of a residual through it in turn.
    """
    w_s = grid.shifted_weight_values(weight, dof_mask, dof_mask)
    w_t = grid.shifted_weight_values(weight, eq_mask, dof_mask)
    vol = grid.cell_volume
    src_shape = (n_in, w_s.size)
    tgt_shape = (n_out, w_t.size)
    forward = stencil_plan(terms, grid.stencils(eq_mask, dof_mask), n_out)
    backward = stencil_plan(terms, grid.stencils(dof_mask, eq_mask, transpose=True), n_in,
                            adjoint=True)
    buf = np.empty(max(n_in * (w_s.size + 1), n_out * (w_t.size + 1)), dtype=dtype)
    gathered = np.empty(max(w_s.size, w_t.size), dtype=dtype)

    def padded(x, shape, scale=None):
        # x, times scale if given, in the work buffer, each row followed
        # by the zero slot that the stencil indices of nodes outside the
        # mask point at
        rows, n = shape
        v = buf[:rows * (n + 1)].reshape(rows, n + 1)
        if scale is None:
            np.copyto(v[:, :-1], x, casting="same_kind")
        else:
            np.multiply(x, scale, out=v[:, :-1], casting="same_kind")
        v[:, -1] = 0.0
        return v

    def apply(u):
        return apply_plan(forward, padded(u, src_shape), np.empty(tgt_shape, dtype=dtype),
                          gathered[:w_t.size])

    def adjoint(b):
        out = apply_plan(backward, padded(b, tgt_shape, w_t), np.empty(src_shape, dtype=dtype),
                         gathered[:w_s.size])
        out /= w_s
        return out

    def dot_source(x, y):
        return _weighted_dot(x, y, w_s, vol)

    def dot_target(x, y):
        return _weighted_dot(x, y, w_t, vol)

    preconditioner = None
    if n_out == 1 and terms:
        axis_scale = np.zeros(grid.dim)
        for _, _, s, ax in terms:
            axis_scale[ax] += abs(s) ** 2
        top = float(axis_scale.max())
        unit_scale = tuple((axis_scale / top).tolist())
        multigrid = None

        def preconditioner(r):
            nonlocal multigrid
            if multigrid is None:
                # w_s stands for the weight in the key, and stays alive with it
                multigrid = grid._derived(
                    ("multigrid", id(w_s), grid._own(eq_mask), grid._own(dof_mask), unit_scale),
                    ParityMultigrid, eq_mask, dof_mask, w_s, grid.h, unit_scale)
            out = multigrid(r[0])
            out *= 1.0 / top  # a complex product with a real scalar is cheaper than a quotient
            out /= w_t
            return out[None]

    return LinearMap(apply, adjoint, dot_source, dot_target, src_shape, tgt_shape,
                     preconditioner)


class _Progress:
    """Raw and best-so-far residual histories and stall test of one solve."""

    def __init__(self, delta0: float):
        self.delta0 = delta0
        self.best = delta0
        self.since_improve = 0
        self.history: list[float] = []
        self.raw_history: list[float] = []

    def stalled(self, delta: float) -> bool:
        """Record the squared residual of one iteration; True once
        STALL_WINDOW iterations in a row brought no new best."""
        if delta < self.best:
            self.best = delta
            self.since_improve = 0
        else:
            self.since_improve += 1
        self.history.append(float(np.sqrt(self.best / self.delta0)))
        self.raw_history.append(float(np.sqrt(delta / self.delta0)))
        return self.since_improve >= STALL_WINDOW


def solve_min_norm(A: LinearMap, f: np.ndarray, tol: float = 1e-8,
                   maxiter: int | None = None) -> tuple[np.ndarray, SolveReport]:
    """Minimum-norm solution of A u = f.

    A map with a preconditioner is solved on the dual system
    A A* y = f, u = A* y, by preconditioned conjugate gradients (Craig's
    method, report.method "craig"); any other map by conjugate gradients
    on the weighted normal equations (CGLS form, "cgls").  Either way
    every iterate lies in the range of the adjoint, hence orthogonal to
    ker A, and the solve stops once |f - A u|_T <= tol |f|_T.  With CGLS
    the target-norm residual is minimized over growing Krylov spaces, so
    it is nonincreasing; when f has a component outside the numerical
    range the residual stalls at its size (the projection happens
    implicitly) and the report says so.  The last iterate is returned
    with its own residual; raw_residual_history keeps the residual the
    iteration tracks for each iterate and residual_history the best of
    them so far.  Each solve that returns logs one INFO record on the
    pellel.minnorm logger.  Raises NotInRangeError when f is orthogonal
    to the range and no progress is possible.
    """
    start = time.perf_counter()
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    if maxiter is None:
        maxiter = 10 * math.prod(A.source_shape)
    method, solve = ("cgls", _cgls) if A.preconditioner is None else ("craig", _craig)
    dtype = complex if np.iscomplexobj(f) else float
    f = f.astype(dtype, copy=False)
    delta0 = A.dot_target(f, f)
    if delta0 == 0.0:
        u = np.zeros(A.source_shape, dtype=dtype)
        report = SolveReport(0, 0.0, method, seconds=time.perf_counter() - start)
    else:
        progress = _Progress(delta0)
        u, k, delta, reason, matvecs = solve(A, f, tol, maxiter, progress)
        rel = float(np.sqrt(delta / delta0))
        if reason in ("stagnated", "breakdown") and rel > 1.0 - 1e-6:
            raise NotInRangeError(
                f"right-hand side orthogonal to the operator range (residual stayed at {rel:.3e})")
        report = SolveReport(
            iterations=k,
            relative_residual=rel,
            method=method,
            matvecs=matvecs,
            converged=rel <= tol,
            reason=reason,
            residual_history=progress.history,
            raw_residual_history=progress.raw_history,
            seconds=time.perf_counter() - start,
        )
    logger.info("%s solve: %d iterations, %d matvecs, %.3f s, %s (relative residual %.3e)",
                report.method, report.iterations, report.matvecs, report.seconds,
                report.reason, report.relative_residual)
    return u, report


def _cgls(A: LinearMap, f: np.ndarray, tol: float, maxiter: int, progress: _Progress):
    """CGLS iteration; returns (u, iterations, squared residual, stop
    reason, matvecs).  The vector updates run in place, through one work
    vector for alpha p, and each vector a matvec returns is released at
    its last use, before the next matvec allocates."""
    delta0 = progress.delta0
    u = np.zeros(A.source_shape, dtype=f.dtype)
    r = f.copy()
    p = A.adjoint(r)
    matvecs = 1
    gamma = A.dot_source(p, p)
    step = np.empty_like(p)
    delta = delta0
    k = 0
    reason = "maxiter"
    while k < maxiter:
        if delta <= tol * tol * delta0:
            reason = "converged"
            break
        if gamma <= 0.0:
            reason = "breakdown" if k == 0 else "stagnated"
            break
        q = A.apply(p)
        qq = A.dot_target(q, q)
        if qq <= 0.0:
            reason = "breakdown" if k == 0 else "stagnated"
            break
        alpha = gamma / qq
        np.multiply(p, alpha, out=step)
        u += step
        k += 1
        if k % RECOMPUTE_EVERY == 0:
            del q
            np.subtract(f, A.apply(u), out=r)
            matvecs += 1
        else:
            q *= alpha
            r -= q
            del q
        s = A.adjoint(r)
        matvecs += 2
        gamma_new = A.dot_source(s, s)
        delta = A.dot_target(r, r)
        if progress.stalled(delta):
            reason = "stagnated"
            break
        p *= gamma_new / gamma
        p += s
        del s
        gamma = gamma_new
    else:
        reason = "converged" if delta <= tol * tol * delta0 else "maxiter"
    return u, k, delta, reason, matvecs


def _craig(A: LinearMap, f: np.ndarray, tol: float, maxiter: int, progress: _Progress):
    """Preconditioned conjugate gradients on A A* y = f in the target inner
    product, carrying u = A* y instead of y.  The residual f - A u is
    updated by recurrence and recomputed every RECOMPUTE_EVERY iterations;
    a recurrence that passes the stopping test is confirmed on the
    recomputed residual, from which the iteration restarts if it does
    not pass.  Returns what _cgls returns, with the squared residual of
    the returned u recomputed.  As in _cgls, the vectors of one iteration
    are released at their last use."""
    delta0 = progress.delta0
    u = np.zeros(A.source_shape, dtype=f.dtype)
    r = f.copy()
    delta = delta0
    fresh = True  # r was computed as f - A u, not by recurrence
    matvecs = 0
    k = 0
    p = rho = None
    reason = "maxiter"
    while True:
        if delta <= tol * tol * delta0:
            if fresh:
                reason = "converged"
                break
            np.subtract(f, A.apply(u), out=r)
            matvecs += 1
            delta = A.dot_target(r, r)
            fresh = True
            p = None
            continue
        if k >= maxiter:
            break
        z = A.preconditioner(r)
        rho_new = A.dot_target(r, z)
        if rho_new <= 0.0:
            reason = "breakdown" if k == 0 else "stagnated"
            break
        if p is None:
            p = z
        else:
            p *= rho_new / rho
            p += z
        del z
        rho = rho_new
        s = A.adjoint(p)
        ss = A.dot_source(s, s)  # <p, A A* p>_T
        if ss <= 0.0:
            reason = "breakdown" if k == 0 else "stagnated"
            break
        alpha = rho / ss
        k += 1
        fresh = k % RECOMPUTE_EVERY == 0
        q = None if fresh else A.apply(s)
        s *= alpha
        u += s
        del s
        if fresh:
            np.subtract(f, A.apply(u), out=r)
        else:
            q *= alpha
            r -= q
        del q
        matvecs += 2
        delta = A.dot_target(r, r)
        if progress.stalled(delta):
            reason = "stagnated"
            break
    if not fresh:
        np.subtract(f, A.apply(u), out=r)
        matvecs += 1
        delta = A.dot_target(r, r)
    return u, k, delta, reason, matvecs
