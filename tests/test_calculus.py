import numpy as np
import pytest

import pellel as pl
from pellel import bridge, calculus as calc, pipeline
from pellel.domain import _dilate
from pellel.errors import ValidationError


def test_d_exact_on_linear(disk_grid_coarse):
    g = disk_grid_coarse
    u = pl.RealForm.from_components(g, 0, {(): lambda x: x[0]})
    du = calc.d(u)
    assert np.abs(du.coeffs[0] - 1.0).max() == 0.0
    assert np.abs(du.coeffs[1]).max() == 0.0


def test_d_one_form_example(disk_grid_coarse):
    g = disk_grid_coarse
    a = pl.RealForm.from_components(g, 1, {(1,): lambda x: x[1]})
    da = calc.d(a)
    assert np.abs(da.coeffs[0] + 1.0).max() == 0.0  # d(x2 dx1) = -dx1^dx2


def test_dd_zero_smooth(disk_grid_coarse):
    g = disk_grid_coarse
    u = pl.RealForm.from_components(g, 0, {(): lambda x: x[0]**2 * x[1]})
    ddu = calc.d(calc.d(u))
    assert np.abs(ddu.coeffs).max() <= 1e-12


def test_dd_zero_random_forms(rng):
    for dom, h in ((pl.Domain.ball(1.0), 1 / 24),
                   (pl.Domain.ellipsoid((1.0, 2.0)), 1 / 16),
                   (pl.Domain.ball(1.0, dim=4), 1 / 4)):
        grid = pl.build_grid(dom, h)
        for p in range(grid.dim):
            f = pl.RealForm.zeros(grid, p)
            f.coeffs[...] = rng.standard_normal(f.coeffs.shape)
            ddu = calc.d(calc.d(f))
            bound = 1e-12 * np.abs(f.coeffs).max()
            if ddu.coeffs.size:
                assert np.abs(ddu.coeffs).max() <= bound


def test_top_degree_d_is_empty(disk_grid_coarse):
    g = disk_grid_coarse
    top = pl.RealForm.from_components(g, 2, {(1, 2): 1.0})
    dtop = calc.d(top)
    assert dtop.degree == 3 and dtop.coeffs.shape[0] == 0
    assert pl.norm2(dtop, pl.Weight.zero(2)) == 0.0


def test_t_star_formula_examples(disk_grid_coarse, gauss2):
    g = disk_grid_coarse
    # phi = |x|^2, alpha = dx1: A = phi_1 = 2 x1 (exact: constant and linear terms)
    a = pl.RealForm.from_components(g, 1, {(1,): 1.0})
    ts = calc.t_star_formula(a, gauss2)
    assert np.abs(ts.coeffs[0] - 2 * g.coords[0]).max() == 0.0
    # phi = 0, alpha = x1 dx1: A = -1
    a = pl.RealForm.from_components(g, 1, {(1,): lambda x: x[0]})
    ts = calc.t_star_formula(a, pl.Weight.zero(2))
    assert np.abs(ts.coeffs[0] + 1.0).max() == 0.0


def test_t_star_formula_p1_sign_pattern(disk_grid_coarse):
    # alpha = g dx1^dx2, phi = 0: the two-term alternating-sign display
    # A_1 = +d g/dx2, A_2 = -d g/dx1
    g = disk_grid_coarse
    w0 = pl.Weight.zero(2)
    a = pl.RealForm.from_components(g, 2, {(1, 2): lambda x: x[0] * x[1]})
    ts = calc.t_star_formula(a, w0)
    gval = a.coeffs[0]
    direct_1 = calc.diff_axis(gval, 1, g.h)
    direct_2 = -calc.diff_axis(gval, 0, g.h)
    assert np.abs(ts.coeffs[0] - direct_1).max() == 0.0
    assert np.abs(ts.coeffs[1] - direct_2).max() == 0.0


def test_adjointness_discrete(disk_grid_coarse, gauss2, rng):
    g = disk_grid_coarse
    mask = g.interior
    dof = _dilate(mask)
    worst = 0.0
    for _ in range(30):
        u = pl.RealForm(g, 0, rng.standard_normal((1,) + g.shape) * dof)
        a = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
        lhs = pl.weighted_inner(calc.d(u), a, gauss2, mask)
        rhs = pl.weighted_inner(u, calc.t_star_discrete(a, gauss2), gauss2, dof)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    assert worst <= 1e-12


def test_t_star_discrete_zero(disk_grid_coarse, gauss2):
    a = pl.RealForm.zeros(disk_grid_coarse, 1)
    out = calc.t_star_discrete(a, gauss2)
    assert np.abs(out.coeffs).max() == 0.0


def test_t_star_formula_vs_discrete_second_order(disk, gauss2):
    def bump(x):
        s = np.clip(0.49 - (x[0]**2 + x[1]**2), 0.0, None)
        return s**4

    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = pl.build_grid(disk, h)
        a = pl.RealForm.from_components(grid, 1, {(1,): bump})
        diff = calc.t_star_formula(a, gauss2) - calc.t_star_discrete(a, gauss2)
        errs.append(np.sqrt(pl.norm2(diff, gauss2, grid.interior)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8


def test_delta_examples(disk_grid_coarse, gauss2):
    g = disk_grid_coarse
    one = np.ones(g.shape)
    for j in (1, 2):
        out = calc.delta(j, one, gauss2, g)
        assert np.abs(out + 2 * g.coords[j - 1]).max() == 0.0  # -phi_j
    out = calc.delta(1, g.coords[0], pl.Weight.zero(2), g)
    assert np.abs(out - 1.0).max() == 0.0


def test_delta_commutator(disk, gauss2):
    # d/dx_k delta_j - delta_j d/dx_k = -phi_jk, checked on a cubic to O(h^2)
    errs = []
    for h in (1 / 16, 1 / 32):
        grid = pl.build_grid(disk, h)
        gval = grid.coords[0]**2 * grid.coords[1]
        jj, kk = 1, 2
        a = calc.diff_axis(calc.delta(jj, gval, gauss2, grid), kk - 1, grid.h)
        b = calc.delta(jj, calc.diff_axis(gval, kk - 1, grid.h), gauss2, grid)
        # phi = |x|^2 has phi_jk = 2 delta_jk; here j != k so the commutator vanishes
        errs.append(np.abs((a - b))[grid.interior].max())
    assert errs[-1] <= 1e-10

    # diagonal case picks up -phi_jj = -2, up to the O(h^2) product-rule error
    diag_errs = []
    for h in (1 / 16, 1 / 32):
        grid = pl.build_grid(disk, h)
        gval = grid.coords[0]**2 * grid.coords[1]
        a = calc.diff_axis(calc.delta(1, gval, gauss2, grid), 0, grid.h)
        b = calc.delta(1, calc.diff_axis(gval, 0, grid.h), gauss2, grid)
        target = -2.0 * gval
        diag_errs.append(np.abs((a - b) - target)[grid.interior].max())
        assert diag_errs[-1] <= 4.0 * h**2
    assert diag_errs[0] / diag_errs[1] >= 3.0  # second order


def test_dbar_partial_examples(disk_grid_coarse):
    g = disk_grid_coarse
    I = g.interior
    X, Y = g.coords
    z = X + 1j * Y
    zbar = X - 1j * Y
    # dbar(zbar^2) = 2 zbar dzbar, exact on quadratics away from box faces
    u = pl.ComplexForm(g, (0, 0), (zbar**2)[None])
    db = calc.dbar(u)
    assert np.abs(db.coeffs[0] - 2 * zbar)[I].max() <= 1e-13
    # dbar z = 0 and partial z = dz everywhere (linear: both stencils exact)
    uz = pl.ComplexForm(g, (0, 0), z[None])
    assert np.abs(calc.dbar(uz).coeffs).max() == 0.0
    assert np.abs(calc.partial(uz).coeffs[0] - 1.0).max() == 0.0
    # i d dbar |z|^2 = i dz^dzbar
    uabs = pl.ComplexForm(g, (0, 0), (X**2 + Y**2)[None].astype(complex))
    f = calc.partial(calc.dbar(uabs))
    assert np.abs(1j * f.coeffs[0] - 1j)[I].max() == 0.0


def test_dbar_unsupported_bidegree(disk_grid_coarse):
    f = pl.ComplexForm.zeros(disk_grid_coarse, (1, 1))
    with pytest.raises(ValidationError):
        calc.dbar(f)
    with pytest.raises(ValidationError):
        calc.partial(f)


def test_anticommutation_exact(disk_grid_coarse, rng):
    g = disk_grid_coarse
    u = pl.ComplexForm(g, (0, 0), rng.standard_normal((1,) + g.shape)
                       + 1j * rng.standard_normal((1,) + g.shape))
    a = calc.partial(calc.dbar(u)).coeffs
    b = calc.dbar(calc.partial(u)).coeffs
    scale = max(np.abs(a).max(), 1e-300)
    assert np.abs(a + b).max() <= 1e-12 * scale


def test_conjugation_identity_exact(disk_grid_coarse, rng):
    g = disk_grid_coarse
    u = pl.ComplexForm(g, (0, 0), rng.standard_normal((1,) + g.shape)
                       + 1j * rng.standard_normal((1,) + g.shape))
    lhs = calc.partial(calc.conj_form(u)).coeffs
    rhs = np.conj(calc.dbar(u).coeffs)
    assert np.abs(lhs - rhs).max() == 0.0


def test_d_matches_split_reassembly(rng):
    dom = pl.Domain.ball(1.0, dim=4)
    grid = pl.build_grid(dom, 1 / 4)
    v = pl.RealForm(grid, 1, rng.standard_normal((4,) + grid.shape))
    v10, v01 = bridge.split_1form(v)
    f20 = calc.partial(v10)
    f11 = pl.ComplexForm(grid, (1, 1), calc.partial(v01).coeffs + calc.dbar(v10).coeffs)
    f02 = calc.dbar(v01)
    dv = calc.d(v)
    scale = np.abs(dv.coeffs).max()
    assert np.abs(f02.coeffs - f20.coeffs.conj()).max() <= 1e-13 * scale
    reassembled = (bridge.real11_to_real2(f11).coeffs + bridge._to_real(f20).coeffs
                   + bridge._to_real(f02).coeffs)
    assert np.abs(reassembled - dv.coeffs).max() <= 1e-13 * scale


def test_d_on_scalars_matches_join(disk_grid_coarse, rng):
    g = disk_grid_coarse
    u = pl.RealForm(g, 0, rng.standard_normal((1,) + g.shape))
    uc = pl.ComplexForm(g, (0, 0), u.coeffs.astype(complex))
    du = bridge._to_real(calc.partial(uc)).coeffs + bridge._to_real(calc.dbar(uc)).coeffs
    assert np.abs(du - calc.d(u).coeffs).max() == 0.0


def _pipeline_grids():
    return {"disk": pl.build_grid(pl.Domain.ball(1.0), 1 / 16),
            "ball4": pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)}


_PIPELINE_GRIDS = _pipeline_grids()


@pytest.mark.parametrize("real", [True, False], ids=["real", "nonreal"])
@pytest.mark.parametrize("name", list(_PIPELINE_GRIDS))
def test_mask_apply_matches_box_operators_of_the_pipeline(name, real, rng):
    # the closedness gate, the two type residuals and the composed residual
    # i partial dbar u - f, on compact vectors, against the box operators
    # read on the mask; the error is measured against the input scale
    grid = _PIPELINE_GRIDS[name]
    interior, eq, dof = grid.interior, grid.mask_eq, grid.mask_dof
    # every neighbour of a row node is a column node
    assert not (_dilate(interior) & ~eq).any() and not (_dilate(eq) & ~dof).any()
    n, dim, h = grid.dim // 2, grid.dim, grid.h

    def check(terms, box_in, box_out, rows, cols, order=1):
        got = calc.mask_apply(grid, terms, grid.compact(box_in, cols), len(box_out), rows, cols)
        scale = np.abs(box_in).max() / h ** order
        # in C^1 the gate and the (2,0) part have no components
        assert np.abs(got - grid.compact(box_out, rows)).max(initial=0.0) <= 1e-14 * scale
        return got

    def random_form(cls, deg):
        form = cls.zeros(grid, deg)
        form.coeffs[...] = rng.standard_normal(form.coeffs.shape)
        if cls is pl.ComplexForm:
            form.coeffs += 1j * rng.standard_normal(form.coeffs.shape)
        return form

    f = random_form(pl.ComplexForm, (1, 1))
    f = f if not real else 0.5 * (f + calc.conj_form(f))
    parts = [f] if real else [0.5 * (f + calc.conj_form(f)), -0.5j * (f - calc.conj_form(f))]
    for part in parts:
        f2 = bridge.real11_to_real2(part)
        check(calc.d_terms(dim, 2), f2.coeffs, calc.d(f2).coeffs, eq, dof)
    v10, v01 = bridge.split_1form(random_form(pl.RealForm, 1))
    check(calc.complex_terms(n, (1, 0), False), v10.coeffs, calc.partial(v10).coeffs, eq, dof)
    check(calc.complex_terms(n, (0, 1), True), v01.coeffs, calc.dbar(v01).coeffs, eq, dof)
    w = random_form(pl.ComplexForm, (0, 0))
    u = pl.ComplexForm(grid, (0, 0), -1j * (w.coeffs - w.coeffs.conj()) if real else w.coeffs)
    du = calc.dbar(u)
    check(calc.complex_terms(n, (0, 0), True), u.coeffs, du.coeffs, eq, dof)
    box = grid.compact(1j * calc.partial(du).coeffs - f.coeffs, interior)
    resid = pipeline._composed_residual(grid.compact(f.coeffs, interior), u, grid)
    scale = max(np.abs(u.coeffs).max() / h ** 2, np.abs(f.coeffs).max())
    assert np.abs(resid - box).max() <= 1e-14 * scale


def test_t_star_discrete_on_a_custom_mask(monkeypatch, disk_grid_coarse, gauss2, rng):
    # a mask that is not one of the grid's own builds its stencil tables on
    # every call, and the adjoint stays exact on it
    g = disk_grid_coarse
    mask = g.interior & (g.coords[0] > 0.1 * g.coords[1])
    dof = _dilate(mask)
    built = []
    mask_stencils = calc.mask_stencils

    def counted(rows, cols, h, transpose=False):
        built.append(transpose)
        return mask_stencils(rows, cols, h, transpose)

    monkeypatch.setattr(calc, "mask_stencils", counted)
    worst = 0.0
    for _ in range(3):
        u = pl.RealForm(g, 0, rng.standard_normal((1,) + g.shape) * dof)
        a = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
        lhs = pl.weighted_inner(calc.d(u), a, gauss2, mask)
        rhs = pl.weighted_inner(u, calc.t_star_discrete(a, gauss2, mask), gauss2, dof)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    assert worst <= 1e-12
    assert built == [False, True] * 3
