"""Minimum-weighted-norm solves of first-order grid equations A u = f.

The solver runs conjugate gradients on the weighted normal equations in
least-squares (CGLS) form: iterates build up in the range of the weighted
adjoint, hence stay orthogonal to ker A, which characterizes the
minimum-source-norm solution among all solutions of A u = P_range f.
Right-hand sides with a component outside the numerical range are handled
implicitly: the residual floors at the distance to the range and the
returned iterate solves the projected system (the same effect as an
explicit least-squares pre-projection pass, without the extra solve).

Weights enter only through the inner products; vectors are never scaled
by exp(+-phi), so large weights cannot overflow the iteration.  Vectors
are compact: one entry per node of the unknown or equation mask, so the
iteration never touches the rest of the grid box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import mask_stencils
from .domain import Grid, Weight
from .errors import NotInRangeError, ValidationError


@dataclass
class LinearMap:
    """Matrix-free operator between weighted coefficient-array spaces.

    apply/adjoint act on arrays of shape source_shape/target_shape; the
    adjoint is exact for the supplied weighted inner products.  For the
    maps of weighted_first_order_map these are compact arrays
    (n_in, #dof nodes) and (n_out, #eq nodes).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dot_source: Callable[[np.ndarray, np.ndarray], float]
    dot_target: Callable[[np.ndarray, np.ndarray], float]
    source_shape: tuple[int, ...]
    target_shape: tuple[int, ...]
    dof_count: int

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

    solve_min_norm fills the iteration record.  The norms, bound and
    ratios stay None until a pipeline stage sets them; the norms then
    integrate over the equation mask against exp(-phi), unshifted.
    """

    iterations: int
    relative_residual: float
    solution_norm2: float | None = None
    rhs_norm2: float | None = None
    bound: float | None = None
    ratio: float | None = None
    bound_ratio: float | None = None
    converged: bool = True
    reason: str = "converged"
    residual_history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "iterations": self.iterations,
            "relative_residual": self.relative_residual,
            "solution_norm2": self.solution_norm2,
            "rhs_norm2": self.rhs_norm2,
            "bound": self.bound,
            "ratio": self.ratio,
            "bound_ratio": self.bound_ratio,
            "converged": self.converged,
            "reason": self.reason,
        }
        return out


def _stencil_add(out, scale, v, diagonals):
    """out += scale * (stencil applied to v), one gather per diagonal."""
    for index, coef in diagonals:
        # the indices are in range by construction; "clip" skips the check
        t = np.take(v, index, mode="clip")
        t *= scale * coef
        out += t


def weighted_first_order_map(grid: Grid, weight: Weight, terms,
                             n_in: int, n_out: int,
                             eq_mask: np.ndarray, dof_mask: np.ndarray,
                             dtype=float) -> LinearMap:
    """Masked weighted operator from a first-order term list.

    The source holds the unknowns, shape (n_in, #dof_mask nodes), the
    target the equations, shape (n_out, #eq_mask nodes), nodes in C order
    of each mask: box coefficients c map to c[:, mask], and u back to the
    box by out[:, mask] = u.  A u is the box operator applied to u
    extended by zero, read on eq_mask; the adjoint is the exact transpose
    against the exp(-phi) h^N inner products on the two masks.  The
    weight is shift-normalized by its minimum over the unknowns so the
    exponentials stay tame for large phi.  apply and adjoint share one
    work buffer, so a map serves one thread at a time.
    """
    phi_s = weight.phi(grid.coords[:, dof_mask])
    shift = float(phi_s.min()) if phi_s.size else 0.0
    w_s = np.exp(-(phi_s - shift))
    w_t = np.exp(-(weight.phi(grid.coords[:, eq_mask]) - shift))
    vol = grid.cell_volume
    src_shape = (n_in, w_s.size)
    tgt_shape = (n_out, w_t.size)
    forward = mask_stencils(eq_mask, dof_mask, grid.h)
    backward = mask_stencils(dof_mask, eq_mask, grid.h, transpose=True)
    buf = np.empty(max(n_in * (w_s.size + 1), n_out * (w_t.size + 1)), dtype=dtype)

    def padded(x, shape):
        # x in the work buffer, each row followed by the zero slot that
        # the stencil indices of nodes outside the mask point at
        rows, n = shape
        v = buf[:rows * (n + 1)].reshape(rows, n + 1)
        np.copyto(v[:, :-1], x, casting="same_kind")
        v[:, -1] = 0.0
        return v

    def apply(u):
        v = padded(u, src_shape)
        out = np.zeros(tgt_shape, dtype=dtype)
        for o, i, s, ax in terms:
            _stencil_add(out[o], s, v[i], forward[ax])
        return out

    def adjoint(b):
        v = padded(b, tgt_shape)
        v[:, :-1] *= w_t
        out = np.zeros(src_shape, dtype=dtype)
        for o, i, s, ax in terms:
            _stencil_add(out[i], np.conj(s), v[o], backward[ax])
        out /= w_s
        return out

    def dot_source(x, y):
        return float(np.sum((x * np.conj(y)).real * w_s) * vol)

    def dot_target(x, y):
        return float(np.sum((x * np.conj(y)).real * w_t) * vol)

    return LinearMap(apply, adjoint, dot_source, dot_target,
                     src_shape, tgt_shape, n_in * w_s.size)


def solve_min_norm(A: LinearMap, f: np.ndarray, tol: float = 1e-8,
                   maxiter: int | None = None,
                   recompute_every: int = 50,
                   stall_window: int = 60) -> tuple[np.ndarray, SolveReport]:
    """Minimum-norm solution of A u = f by conjugate gradients on the
    weighted normal equations (CGLS form).

    Every iterate lies in the range of the adjoint, hence orthogonal to
    ker A; the limit is therefore the minimum-source-norm solution of
    A u = P_range f.  The target-norm residual is minimized over growing
    Krylov spaces, so it is nonincreasing; when f has a component outside
    the numerical range the residual stalls at its size (the projection
    happens implicitly) and the report says so.  The last iterate is
    returned with its own residual; residual_history keeps the best
    residual so far.  Raises NotInRangeError
    when f is orthogonal to the range and no progress is possible.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if maxiter is None:
        maxiter = 10 * A.dof_count
    dtype = complex if np.iscomplexobj(f) else float
    u = np.zeros(A.source_shape, dtype=dtype)
    r = f.astype(dtype, copy=True)
    delta0 = A.dot_target(r, r)
    history: list[float] = []
    if delta0 == 0.0:
        return u, SolveReport(0, 0.0, residual_history=history)
    s = A.adjoint(r)
    gamma = A.dot_source(s, s)
    p = s.copy()
    delta = best_delta = delta0
    since_improve = 0
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
        u += alpha * p
        k += 1
        if k % recompute_every == 0:
            r = f - A.apply(u)
        else:
            r -= alpha * q
        s = A.adjoint(r)
        gamma_new = A.dot_source(s, s)
        delta = A.dot_target(r, r)
        if delta < best_delta:
            best_delta = delta
            since_improve = 0
        else:
            since_improve += 1
        history.append(float(np.sqrt(best_delta / delta0)))
        if since_improve >= stall_window:
            reason = "stagnated"
            break
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    else:
        reason = "converged" if delta <= tol * tol * delta0 else "maxiter"

    rel = float(np.sqrt(delta / delta0))
    if reason in ("stagnated", "breakdown") and rel > 1.0 - 1e-6:
        raise NotInRangeError(
            f"right-hand side orthogonal to the operator range (residual stayed at {rel:.3e})")
    report = SolveReport(
        iterations=k,
        relative_residual=rel,
        converged=rel <= tol,
        reason=reason,
        residual_history=history,
    )
    return u, report
