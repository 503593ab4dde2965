import json

import numpy as np
import pytest

import pellel as pl
from pellel import calculus as calc
from pellel import pipeline
from pellel.errors import ValidationError


def test_poincare_zero_rhs(disk_grid_coarse, gauss2):
    f = pl.RealForm.zeros(disk_grid_coarse, 2)
    u, rep = pl.solve_poincare(f, gauss2, disk_grid_coarse)
    assert np.abs(u.coeffs).max() == 0.0
    assert rep.iterations == 0


def test_poincare_constant_two_form(disk_grid_coarse, gauss2):
    f = pl.RealForm.from_components(disk_grid_coarse, 2, {(1, 2): 1.0})
    u, rep = pl.solve_poincare(f, gauss2, disk_grid_coarse, tol=1e-10)
    assert rep.relative_residual <= 1e-8
    assert rep.bound == pytest.approx(0.25)
    assert rep.ratio <= 0.25 * 1.15
    du = calc.d(u)
    err = pl.norm2(du - f, gauss2, disk_grid_coarse.mask_eq)
    assert np.sqrt(err / rep.rhs_norm2) <= 1e-8


def test_poincare_manufactured_p0_ellipse():
    dom = pl.Domain.ellipsoid((1.0, 2.0))
    grid = pl.build_grid(dom, 1 / 16)
    w = pl.Weight.abs2(2)
    f = pl.RealForm.from_components(grid, 1, {
        (1,): lambda x: x[1], (2,): lambda x: x[0]})  # d(x1 x2)
    u, rep = pl.solve_poincare(f, w, grid, tol=1e-10)
    assert rep.relative_residual <= 1e-6
    assert rep.ratio <= 0.5 * 1.15
    assert rep.bound == pytest.approx(0.5)


def test_poincare_rejects_nonclosed(disk_grid_coarse, gauss2):
    f = pl.RealForm.from_components(disk_grid_coarse, 1, {(2,): lambda x: x[0]})
    with pytest.raises(ValidationError):
        pl.solve_poincare(f, gauss2, disk_grid_coarse)


def test_poincare_degree_range(disk_grid_coarse, gauss2):
    f = pl.RealForm.zeros(disk_grid_coarse, 0)
    with pytest.raises(ValidationError):
        pl.solve_poincare(f, gauss2, disk_grid_coarse)


def test_dbar_zero(disk_grid_coarse, gauss2):
    g = pl.ComplexForm.zeros(disk_grid_coarse, (0, 1))
    w, rep = pl.solve_dbar(g, gauss2, disk_grid_coarse)
    assert np.abs(w.coeffs).max() == 0.0


def test_dbar_constant(disk_grid_coarse, gauss2):
    g = pl.ComplexForm.zeros(disk_grid_coarse, (0, 1))
    g.coeffs[0] = 1.0
    w, rep = pl.solve_dbar(g, gauss2, disk_grid_coarse, tol=1e-10)
    assert rep.relative_residual <= 1e-6
    assert rep.bound == pytest.approx(2.0)  # c_levi = 1
    assert rep.ratio <= 2.0 * 1.15
    db = calc.dbar(w)
    err = pl.norm2(db - g, gauss2, disk_grid_coarse.mask_eq)
    assert np.sqrt(err / rep.rhs_norm2) <= 1e-6


def test_dbar_manufactured_2zbar(disk_grid_coarse, gauss2):
    grid = disk_grid_coarse
    X, Y = grid.coords
    g = pl.ComplexForm.zeros(grid, (0, 1))
    g.coeffs[0] = 2.0 * (X - 1j * Y)
    w, rep = pl.solve_dbar(g, gauss2, grid, tol=1e-10)
    assert rep.relative_residual <= 1e-6
    db = calc.dbar(w)
    err = pl.norm2(db - g, gauss2, grid.mask_eq)
    assert np.sqrt(err / rep.rhs_norm2) <= 1e-6


def test_pipeline_zero(disk_grid_coarse, gauss2):
    f = pl.ComplexForm.zeros(disk_grid_coarse, (1, 1))
    u, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert np.abs(u.coeffs).max() == 0.0


def test_pipeline_standard_input(disk_grid_coarse, gauss2):
    f = pl.standard_11_form(disk_grid_coarse)
    u, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert rep.residual <= 1e-5
    assert rep.realness <= 1e-12
    assert rep.ratio <= rep.bound_main * 1.15
    assert rep.bound_main == pytest.approx(2.0)
    assert rep.c == pytest.approx(2.0)
    assert rep.c_levi == pytest.approx(1.0)
    # candidate |z|^2 solves the equation, so the minimum-norm value is
    # at most the candidate norm
    X, Y = disk_grid_coarse.coords
    cand = pl.ComplexForm(disk_grid_coarse, (0, 0), (X**2 + Y**2)[None].astype(complex))
    from pellel.forms import norm2
    assert rep.norm_u2 <= norm2(cand, gauss2, disk_grid_coarse.mask_dof) * (1 + 1e-8)


def test_pipeline_type_bookkeeping(disk_grid_coarse, gauss2):
    f = pl.standard_11_form(disk_grid_coarse)
    _, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert rep.type_residual_20 <= disk_grid_coarse.h
    assert rep.type_residual_02 <= disk_grid_coarse.h


def test_pipeline_stage_chaining(disk_grid_coarse, gauss2):
    f = pl.standard_11_form(disk_grid_coarse)
    u, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert rep.stage_poincare is not None and rep.stage_dbar is not None
    # paper chain: |v|^2 <= (1/2c)|f_2|^2 = (2/c)|f|^2, |u|^2 <= (8/c^2)|f|^2
    assert rep.stage_poincare.ratio <= rep.stage_poincare.bound * 1.15
    assert rep.stage_dbar.ratio <= rep.stage_dbar.bound * 1.15
    assert rep.norm_v2 is not None and rep.norm_w2 is not None


def test_pipeline_nonreal_linearity(disk_grid_coarse, gauss2):
    base = pl.standard_11_form(disk_grid_coarse)
    f = (1.0 + 1.0j) * base
    u, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert rep.parts is not None
    u1, _ = pl.solve_poincare_lelong(base, gauss2, disk_grid_coarse)
    # f = (1+i) * base splits into f1 = base, f2 = base
    combined = u1.coeffs + 1j * u1.coeffs
    scale = np.abs(u.coeffs).max()
    assert np.abs(u.coeffs - combined).max() <= 1e-7 * scale
    assert rep.residual <= 1e-5


def test_underflowing_norms_raise():
    # phi = |x|^2 is about 900 on a disk centred at (30, 0), so exp(-phi)
    # underflows to 0 at every node and each weighted norm of f reads 0
    grid = pl.build_grid(pl.Domain.ball(1.0, center=(30.0, 0.0)), 1 / 16)
    w = pl.Weight.abs2(2)
    f = pl.standard_11_form(grid)
    with pytest.raises(ValidationError, match="underflows"):
        pl.solve_poincare_lelong(f, w, grid)
    with pytest.raises(ValidationError, match="underflows"):
        pl.solve_poincare(pl.RealForm.from_components(grid, 2, {(1, 2): 1.0}), w, grid)
    # the interior-mask norm of the composed residual check
    u = pl.ComplexForm.zeros(grid, (0, 0))
    with pytest.raises(ValidationError, match="underflows"):
        pipeline._assemble_report(f, u, w, grid, 2.0, 1.0)


def test_pipeline_rejects_wrong_bidegree(disk_grid_coarse, gauss2):
    g = pl.ComplexForm.zeros(disk_grid_coarse, (0, 1))
    with pytest.raises(ValidationError):
        pl.solve_poincare_lelong(g, gauss2, disk_grid_coarse)


def test_solvers_reject_the_wrong_form_class(disk_grid_coarse, gauss2):
    grid = disk_grid_coarse
    real2 = pl.RealForm.from_components(grid, 2, {(1, 2): 1.0})
    real1 = pl.RealForm.from_components(grid, 1, {(1,): 1.0})
    with pytest.raises(ValidationError, match="real form"):
        pl.solve_poincare(pl.standard_11_form(grid), gauss2, grid)
    with pytest.raises(ValidationError, match=r"\(0,1\) form"):
        pl.solve_dbar(real1, gauss2, grid)
    with pytest.raises(ValidationError, match=r"\(1,1\) form"):
        pl.solve_poincare_lelong(real2, gauss2, grid)


def test_pipeline_rejects_nonclosed_real_11_form():
    # i x3 dz1 ^ dzbar1 over C^2 is real, and d of it is i dx3 ^ dz1 ^ dzbar1
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    f = pl.ComplexForm.zeros(grid, (1, 1))
    f.coeffs[0] = 1j * grid.coords[2]
    assert pipeline._is_real11(f)
    with pytest.raises(ValidationError, match="not closed"):
        pl.solve_poincare_lelong(f, pl.Weight.abs2(4), grid)


def test_pipeline_computes_c_and_realness_once_per_stage(monkeypatch, disk_grid_coarse,
                                                         gauss2):
    calls = {"estimate_c": 0, "conj_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "estimate_c", counted("estimate_c", pipeline.estimate_c))
    monkeypatch.setattr(calc, "conj_form", counted("conj_form", calc.conj_form))
    _, rep = pl.solve_poincare_lelong(pl.standard_11_form(disk_grid_coarse), gauss2,
                                      disk_grid_coarse)
    # one estimate per stage, which the pipeline report reuses; one realness test
    assert calls == {"estimate_c": 2, "conj_form": 1}
    assert rep.c == rep.stage_poincare.c == rep.stage_dbar.c == pytest.approx(2.0)


def test_report_serializes(disk_grid_coarse, gauss2):
    f = pl.standard_11_form(disk_grid_coarse)
    _, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    out = rep.to_dict()
    dumped = json.loads(json.dumps(out))
    assert dumped == out
    for stage in ("stage_poincare", "stage_dbar"):
        assert dumped[stage]["c"] == rep.c
        assert dumped[stage]["residual_history"] == getattr(rep, stage).residual_history
        assert len(dumped[stage]["residual_history"]) == getattr(rep, stage).iterations


def test_corollary_constant_formula(disk, disk_grid_coarse):
    c_om, detail = pl.corollary_constant(disk, disk_grid_coarse)
    assert c_om <= 2.0 * np.e * (1 + 1e-9)
    assert c_om >= 2.0 * np.exp(0.9)  # grid max of |x|^2 is near 1
    assert detail["ratio_unweighted"] <= c_om * 1.15


def test_corollary_radius_scaling():
    dom = pl.Domain.ball(0.5)
    grid = pl.build_grid(dom, 1 / 32)
    c_om, detail = pl.corollary_constant(dom, grid)
    assert c_om <= 2.0 * np.exp(0.25) * (1 + 1e-9)
    assert detail["ratio_unweighted"] <= c_om * 1.15


def test_corollary_small_radius_limit():
    dom = pl.Domain.ball(0.05)
    grid = pl.build_grid(dom, 0.0125)
    c_om, _ = pl.corollary_constant(dom, grid)
    assert abs(c_om - 2.0) <= 0.01
