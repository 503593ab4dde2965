"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when the assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines and timings.
"""

import time

import numpy as np
import pytest

import pellel as pl
from pellel import calculus as calc, verify as V
from pellel.domain import _dilate


def _report(name, detail):
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def gauss2():
    return pl.Weight.abs2(2)


def test_exactness_dd_zero():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = ((pl.Domain.ball(1.0), 1 / 64),
             (pl.Domain.ellipsoid((1.0, 2.0)), 1 / 32),
             (pl.Domain.ball(1.0, dim=4), 1 / 6))
    for dom, h in cases:
        grid = pl.build_grid(dom, h)
        for p in range(grid.dim):
            u = pl.RealForm.zeros(grid, p)
            u.coeffs[...] = rng.standard_normal(u.coeffs.shape)
            ddu = calc.d(calc.d(u))
            if ddu.coeffs.size:
                worst = max(worst, np.abs(ddu.coeffs).max() / np.abs(u.coeffs).max())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report("exactness d(d u) = 0", f"worst {worst:.2e} <= 1e-12, {elapsed:.1f}s")


def test_adjointness_discrete():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 32)
    w = pl.Weight.abs2(2)
    mask = grid.interior
    dof = _dilate(mask)
    worst = 0.0
    for p in (0, 1):
        for _ in range(50):
            nu = pl.RealForm.zeros(grid, p).coeffs.shape
            na = pl.RealForm.zeros(grid, p + 1).coeffs.shape
            u = pl.RealForm(grid, p, rng.standard_normal(nu) * dof)
            a = pl.RealForm(grid, p + 1, rng.standard_normal(na))
            lhs = pl.weighted_inner(calc.d(u), a, w, mask)
            rhs = pl.weighted_inner(u, calc.t_star_discrete(a, w), w, dof)
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report("adjointness of the discrete codifferential",
            f"worst {worst:.2e} <= 1e-12 on 100 probes, {elapsed:.1f}s")


def test_formula_vs_discrete_adjoint_order():
    w = pl.Weight.abs2(2)
    dom = pl.Domain.ball(1.0)

    def bump(x):
        s = np.clip(0.49 - (x[0]**2 + x[1]**2), 0.0, None)
        return s**4

    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = pl.build_grid(dom, h)
        a = pl.RealForm.from_components(grid, 1, {(1,): bump})
        diff = calc.t_star_formula(a, w) - calc.t_star_discrete(a, w)
        errs.append(np.sqrt(pl.norm2(diff, w, grid.interior)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8
    _report("formula vs discrete adjoint consistency",
            f"orders {[f'{o:.2f}' for o in orders]} >= 1.8")


def test_dalpha_identity_random():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    for nvars in (2, 4):
        pts = rng.uniform(-1.0, 1.0, (nvars, 100))
        degrees = [1, 2] if nvars == 2 else [2]
        per = 50 // len(degrees)
        for degree in degrees:
            for _ in range(per):
                alpha = V.random_polyform(rng, nvars, degree)
                worst = max(worst, V.check_dalpha_identity(alpha, pts))
                count += 1
    elapsed = time.perf_counter() - t0
    assert count == 100
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report("pointwise |d a|^2 identity",
            f"worst {worst:.2e} <= 1e-12 on {count} random forms, {elapsed:.1f}s")


def test_boundary_identity():
    dom = pl.Domain.ball(1.0)
    quad = pl.boundary_quadrature(dom, 1024)
    worst = 0.0
    for g in (V.Poly.constant(2, 1.0), V.Poly.variable(2, 1),
              V.Poly.variable(2, 1) * V.Poly.variable(2, 2)):
        alpha = V.tangential_1form(dom, g)
        worst = max(worst, V.check_boundary_identity(alpha, dom, quad))
    assert worst <= 1e-8
    _report("tangential boundary identity",
            f"worst {worst:.2e} <= 1e-8 at 1024 nodes")


def test_bochner_identity_two_sided():
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    quad = pl.boundary_quadrature(dom, 1024)
    alpha = V.tangential_1form(dom, V.Poly.variable(2, 1))
    devs = []
    for nodes in (128, 256):
        grid = pl.build_grid(dom, 2.0 / nodes)
        res = V.check_bochner_identity(alpha, w, dom, grid, quad)
        devs.append(res.deviation)
        if nodes == 128:
            assert res.deviation <= 0.02 * max(res.lhs, res.rhs)
    assert devs[0] / devs[1] >= 1.5
    _report("integral identity for |T* a|^2 + |d a|^2",
            f"dev {devs[0]:.2e} within 2%, improvement x{devs[0] / devs[1]:.1f} >= 1.5")


def test_basic_estimate_margin():
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    quad = pl.boundary_quadrature(dom, 1024)
    grid = pl.build_grid(dom, 2.0 / 128)
    worst_rel = np.inf
    for g in (V.Poly.constant(2, 1.0), V.Poly.variable(2, 1),
              V.Poly.variable(2, 2)):
        alpha = V.tangential_1form(dom, g)
        margin, ref = V.check_basic_estimate(alpha, w, dom, grid)
        worst_rel = min(worst_rel, margin / ref)
        assert margin >= -0.02 * ref
    _report("coercivity estimate margin",
            f"worst margin {worst_rel:+.3f} of reference >= -0.02")


def test_poincare_constant_disk():
    t0 = time.perf_counter()
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    ratios = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = pl.build_grid(dom, h)
        f = pl.RealForm.from_components(grid, 2, {(1, 2): 1.0})
        _, rep = pl.solve_poincare(f, w, grid, tol=1e-10)
        ratios.append(rep.ratio)
        if h == 1 / 64:
            assert rep.ratio <= 0.25 * 1.15
            assert rep.relative_residual <= 1e-6
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("weighted d-equation constant 1/(c(p+1))",
            f"ratios {[f'{r:.4f}' for r in ratios]} <= 0.2875, non-increasing, {elapsed:.0f}s")


def test_dbar_constant_disk():
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    grid = pl.build_grid(dom, 1 / 64)
    g = pl.ComplexForm.zeros(grid, (0, 1))
    g.coeffs[0] = 1.0
    _, rep = pl.solve_dbar(g, w, grid, tol=1e-10)
    assert rep.bound == pytest.approx(2.0)
    assert rep.ratio <= 2.0 * 1.15
    assert rep.relative_residual <= 1e-6
    _report("dbar-equation constant 2/c_levi",
            f"ratio {rep.ratio:.4f} <= 2.3, residual {rep.relative_residual:.1e}")


def test_main_theorem_constant_disk():
    t0 = time.perf_counter()
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    grid = pl.build_grid(dom, 1 / 64)
    f = pl.standard_11_form(grid)
    u, rep = pl.solve_poincare_lelong(f, w, grid)
    elapsed = time.perf_counter() - t0
    assert rep.bound_main == pytest.approx(2.0)
    assert rep.ratio <= 2.0 * 1.15
    assert rep.residual <= 1e-5
    assert rep.realness <= 1e-12
    assert elapsed < 300.0
    _report("potential-equation constant 8/c^2 (Gaussian weight)",
            f"ratio {rep.ratio:.4f} <= 2.3, residual {rep.residual:.1e} <= 1e-5, "
            f"asymmetry |f - conj f|/|f| {rep.realness:.1e}, {elapsed:.0f}s")


def test_c2_smoke():
    t0 = time.perf_counter()
    dom = pl.Domain.ball(1.0, dim=4)
    w = pl.Weight.abs2(4)
    grid = pl.build_grid(dom, 1 / 12)
    f = pl.standard_11_form(grid)  # i dz1 ^ dzbar1
    u, rep = pl.solve_poincare_lelong(f, w, grid)
    elapsed = time.perf_counter() - t0
    assert rep.residual <= 1e-3
    assert rep.ratio <= 2.0 * 1.5
    assert elapsed < 600.0
    _report("two-complex-dimension smoke test",
            f"ratio {rep.ratio:.4f} <= 3.0, residual {rep.residual:.1e} <= 1e-3, {elapsed:.0f}s")


def test_corollary_unweighted_constant():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 64)
    c_om, detail = pl.corollary_constant(grid)
    limit = 2.0 * np.e * 1.15
    assert c_om <= 2.0 * np.e * (1 + 1e-9)
    assert detail["ratio_unweighted"] <= limit
    _report("unweighted corollary constant 2 e^(R^2)",
            f"c_omega {c_om:.4f}, ratio {detail['ratio_unweighted']:.4f} <= {limit:.3f}")


def test_nonreal_linearity():
    dom = pl.Domain.ball(1.0)
    w = pl.Weight.abs2(2)
    grid = pl.build_grid(dom, 1 / 32)
    base = pl.standard_11_form(grid)
    scale = 0.5 + 2.0j
    u_scaled, rep = pl.solve_poincare_lelong(scale * base, w, grid)
    u_base, _ = pl.solve_poincare_lelong(base, w, grid)
    diff = np.abs(u_scaled.coeffs - scale * u_base.coeffs).max()
    ref = np.abs(u_scaled.coeffs).max()
    assert diff <= 1e-6 * ref
    assert rep.residual <= 1e-5
    _report("linearity over complex scalars",
            f"recombination error {diff / ref:.1e} <= 1e-6")
