import dataclasses
import json
import logging
import sys
import time
import tracemalloc

import numpy as np
import pytest

import pellel as pl
from pellel import bridge
from pellel import calculus as calc
from pellel import pipeline
from pellel.errors import ValidationError
from pellel.minnorm import RECOMPUTE_EVERY


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


def test_dbar_closedness_gate_in_c2():
    # dbar(zbar_2 dzbar_1) = dzbar_2 ^ dzbar_1 is not 0, so the gate
    # rejects it; dzbar_1 is closed and passes
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 3)
    weight = pl.Weight.abs2(4)
    g = pl.ComplexForm.zeros(grid, (0, 1))
    g.coeffs[0] = grid.coords[2] - 1j * grid.coords[3]
    with pytest.raises(ValidationError, match="dbar right-hand side is not closed"):
        pl.solve_dbar(g, weight, grid)
    g.coeffs[0] = 1.0
    _, rep = pl.solve_dbar(g, weight, grid)
    assert rep.converged


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


def test_realness_is_the_relative_asymmetry_of_f(disk_grid_coarse, gauss2):
    # 1e-12 on the real part of i dz ^ dzbar: conj f = -conj(1e-12 + i) differs
    # from f by 2e-12, inside the 1e-10 realness gate
    f = pl.standard_11_form(disk_grid_coarse)
    f.coeffs[0] += 1e-12
    _, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert rep.parts is None
    assert rep.realness == pytest.approx(2e-12, rel=1e-3)


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


def test_c2_nonreal_report_fields_are_measured():
    # (1 + 0.3i) i d dbar(|z1|^2 |z2|^2): the combined report carries the
    # worse of the two parts, not unmeasured defaults
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    x1, y1, x2, y2 = grid.coords
    z1, z2 = x1 + 1j * y1, x2 + 1j * y2
    f = pl.ComplexForm(grid, (1, 1), 1j * np.stack(
        [np.abs(z2)**2, np.conj(z1) * z2, z1 * np.conj(z2), np.abs(z1)**2]))
    _, rep = pl.solve_poincare_lelong((1.0 + 0.3j) * f, pl.Weight.abs2(4), grid)
    for name in ("realness", "type_residual_20", "type_residual_02"):
        assert getattr(rep, name) == max(getattr(part, name) for part in rep.parts)
    assert rep.type_residual_20 > 0.0 and rep.type_residual_02 > 0.0


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
        pipeline._assemble_report(grid.compact(f.coeffs, grid.interior), u, w, grid, 2.0, 1.0)


@pytest.mark.parametrize("source", [pl.Domain.ball(1.0, center=(0.3, 0.0)), None],
                         ids=["same_shape", "other_shape"])
def test_solvers_reject_a_form_from_another_grid(disk_grid_coarse, gauss2, source):
    # a form from a grid of another shape once raised a raw numpy reshape
    # error, and one from a grid of the same shape was measured with the
    # masks of the grid passed
    grid = disk_grid_coarse
    other = (pl.build_grid(source, grid.h) if source is not None
             else pl.build_grid(grid.domain, grid.h / 2))
    assert (other.shape == grid.shape) == (source is not None)
    g = pl.ComplexForm.zeros(other, (0, 1))
    g.coeffs[0] = 1.0
    for solve, f in ((pl.solve_poincare, pl.RealForm.from_components(other, 2, {(1, 2): 1.0})),
                     (pl.solve_dbar, g),
                     (pl.solve_poincare_lelong, pl.standard_11_form(other))):
        with pytest.raises(ValidationError, match="another grid"):
            solve(f, gauss2, grid)


@pytest.mark.parametrize("stage", ["poincare", "dbar"])
def test_standalone_stage_builds_each_mask_once(monkeypatch, disk_grid_coarse, gauss2, stage):
    grid = disk_grid_coarse
    built = []
    derived = pl.Grid._derived

    def counted(self, key, build, *args):
        def counted_build(*a):
            built.append(key[1])
            return build(*a)
        return derived(self, key, counted_build if key[0] == "nodes" else build, *args)

    monkeypatch.setattr(pl.Grid, "_derived", counted)
    if stage == "poincare":
        pl.solve_poincare(pl.RealForm.from_components(grid, 2, {(1, 2): 1.0}), gauss2, grid)
    else:
        g = pl.ComplexForm.zeros(grid, (0, 1))
        g.coeffs[0] = 2.0 * (grid.coords[0] - 1j * grid.coords[1])
        pl.solve_dbar(g, gauss2, grid)
    # the stage takes its right-hand side on the masks inside its sharing block
    assert sorted(built) == ["mask_dof", "mask_eq"]


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


def _keeps_nothing(grid):
    """The grid holds its fields only: no value of an earlier block."""
    return set(vars(grid)) == {f.name for f in dataclasses.fields(grid)}


def test_pipeline_rejects_nonclosed_real_11_form():
    # i x3 dz1 ^ dzbar1 over C^2 is real, and d of it is i dx3 ^ dz1 ^ dzbar1
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    f = pl.ComplexForm.zeros(grid, (1, 1))
    f.coeffs[0] = 1j * grid.coords[2]
    assert pipeline._relative_asymmetry(f) <= pipeline.REAL_TOL
    weight = pl.Weight.abs2(4)
    with pytest.raises(ValidationError, match="not closed"):
        pl.solve_poincare_lelong(f, weight, grid)
    # the d-stage gate raised inside the pipeline's sharing block, which
    # the grid dropped on the way out
    assert _keeps_nothing(grid)
    assert grid.phi_values(weight, grid.mask_eq) is not grid.phi_values(weight, grid.mask_eq)


def test_pipeline_computes_c_and_realness_once_per_stage(monkeypatch, disk_grid_coarse,
                                                         gauss2):
    calls = {"estimate_c": 0, "asymmetry": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "estimate_c", counted("estimate_c", pipeline.estimate_c))
    monkeypatch.setattr(bridge, "_asymmetry", counted("asymmetry", bridge._asymmetry))
    _, rep = pl.solve_poincare_lelong(pl.standard_11_form(disk_grid_coarse), gauss2,
                                      disk_grid_coarse)
    # one estimate per stage, which the pipeline report reuses; one realness test
    assert calls == {"estimate_c": 2, "asymmetry": 1}
    assert rep.c == rep.stage_poincare.c == rep.stage_dbar.c == pytest.approx(2.0)


def test_each_stage_logs_one_record(caplog, disk_grid_coarse, gauss2):
    with caplog.at_level(logging.INFO, logger="pellel.minnorm"):
        _, rep = pl.solve_poincare_lelong(pl.standard_11_form(disk_grid_coarse), gauss2,
                                          disk_grid_coarse)
    records = [r for r in caplog.records if r.name == "pellel.minnorm"]
    assert len(records) == 2
    for record, stage in zip(records, (rep.stage_poincare, rep.stage_dbar)):
        assert record.levelno == logging.INFO
        message = record.getMessage()
        assert message.startswith(f"{stage.method} solve: {stage.iterations} iterations, "
                                  f"{stage.matvecs} matvecs, {stage.seconds:.3f} s, "
                                  f"{stage.reason}")


# peak traced bytes of one solve_poincare_lelong call over the bytes of f,
# which the caller holds: 1.02 and 2.49 measured (1.60 and 2.86 while the
# gates and residuals ran box operators, 3.26 and 6.51 while the pipeline
# kept whole-box temporaries alive); the bounds keep the earlier relative
# slack.  Each stage releases its box right-hand side once it has taken it
# on the mask nodes.  CPython 3.11 and later hand a call's temporary
# arguments over to the callee, but CPython 3.10 keeps them on the
# caller's stack until the call returns, which leaves the real 2-form of f
# alive through the d-stage there, so 3.10 keeps the earlier bounds
@pytest.mark.parametrize("real, bound, bound_310", [(True, 1.31, 2.0), (False, 2.65, 3.0)],
                         ids=["real", "nonreal"])
def test_c2_pipeline_peak_memory(real, bound, bound_310):
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 6)
    f = pl.standard_11_form(grid)
    if not real:
        # i/2 dz_1 ^ dzbar_2 is closed, and its conjugate partner is absent
        f.coeffs[1] = 0.5j
    weight = pl.Weight.abs2(4)
    tracemalloc.start()
    try:
        _, rep = pl.solve_poincare_lelong(f, weight, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.parts is None) == real
    assert peak <= (bound if sys.version_info >= (3, 11) else bound_310) * f.coeffs.nbytes


def _pipeline_cases():
    return {"disk": (pl.build_grid(pl.Domain.ball(1.0), 1 / 16), pl.Weight.abs2(2)),
            "ball4": (pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4), pl.Weight.abs2(4))}


@pytest.mark.parametrize("name", ["disk", "ball4"])
def test_stencil_tables_built_once_per_mask_pair(monkeypatch, name):
    grid, weight = _pipeline_cases()[name]
    names = {id(grid.interior): "interior", id(grid.mask_eq): "eq", id(grid.mask_dof): "dof"}
    built, diffs = [], []
    mask_stencils, diff_axis = calc.mask_stencils, calc.diff_axis

    def counted_tables(rows, cols, h, transpose=False):
        built.append((names[id(rows)], names[id(cols)], transpose))
        return mask_stencils(rows, cols, h, transpose)

    def counted_diff(*args, **kwargs):
        diffs.append(args[1])
        return diff_axis(*args, **kwargs)

    monkeypatch.setattr(calc, "mask_stencils", counted_tables)
    monkeypatch.setattr(calc, "diff_axis", counted_diff)
    f = pl.standard_11_form(grid)
    _, first = pl.solve_poincare_lelong(f, weight, grid)
    # both stage maps, the gates and the residuals share the
    # unknown-to-equation tables, the adjoints their transpose
    assert sorted(built) == [("dof", "eq", True), ("eq", "dof", False)]
    assert len(diffs) == grid.dim  # the rows of the forward tables
    # the grid keeps no table between calls; a second call builds the same
    assert _keeps_nothing(grid)
    del built[:], diffs[:]
    _, second = pl.solve_poincare_lelong(f, weight, grid)
    assert sorted(built) == [("dof", "eq", True), ("eq", "dof", False)]
    assert len(diffs) == grid.dim
    assert second.ratio == first.ratio and second.residual == first.residual


def test_report_norms_evaluate_the_weight_once_per_mask(disk_grid_coarse):
    grid = disk_grid_coarse
    abs2 = pl.Weight.abs2(2)
    sizes = {int(m.sum()): name for name, m in (("interior", grid.interior),
                                                ("eq", grid.mask_eq), ("dof", grid.mask_dof))}
    calls = []

    def phi(points):
        calls.append(sizes.get(points[0].size, "other"))
        return abs2.phi(points)

    weight = pl.Weight("quadratic", phi, abs2.grad, abs2.hess, matrix=abs2.matrix)
    f = pl.standard_11_form(grid)
    _, first = pl.solve_poincare_lelong(f, weight, grid)
    # the stage maps, which shift it, and the report norms share phi on
    # each mask of the grid for the call, and the grid keeps it no longer
    assert sorted(calls) == ["dof", "eq", "interior"]
    del calls[:]
    _, second = pl.solve_poincare_lelong(f, weight, grid)
    assert sorted(calls) == ["dof", "eq", "interior"]
    for name in ("norm_f2", "norm_u2", "ratio", "residual", "type_residual_02"):
        assert getattr(second, name) == getattr(first, name)


def test_report_serializes(disk_grid_coarse, gauss2):
    f = pl.standard_11_form(disk_grid_coarse)
    start = time.perf_counter()
    _, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    elapsed = time.perf_counter() - start
    out = rep.to_dict()
    dumped = json.loads(json.dumps(out))
    assert dumped == out
    for stage in ("stage_poincare", "stage_dbar"):
        assert dumped[stage]["c"] == rep.c
        assert dumped[stage]["residual_history"] == getattr(rep, stage).residual_history
        assert len(dumped[stage]["residual_history"]) == getattr(rep, stage).iterations
        # one-component stages run the preconditioned dual solve
        assert dumped[stage]["method"] == "craig"
        assert dumped[stage]["matvecs"] == 2 * getattr(rep, stage).iterations + 1
        # the wall time of the stage's solve_min_norm
        assert 0.0 < dumped[stage]["seconds"] < elapsed


def test_c2_stages_run_cgls():
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    _, rep = pl.solve_poincare_lelong(pl.standard_11_form(grid), pl.Weight.abs2(4), grid)
    for stage in (rep.stage_poincare, rep.stage_dbar):
        assert stage.method == "cgls"
        assert stage.matvecs == 1 + 2 * stage.iterations + stage.iterations // RECOMPUTE_EVERY


# Craig iterations of the Poincare and dbar stages on i dz ^ dzbar; CGLS takes
# 94/110 at h = 1/32 and 172/211 at h = 1/64
CRAIG_ITERATIONS = {1 / 32: (15, 16), 1 / 64: (17, 18), 1 / 128: (19, 20)}


@pytest.mark.parametrize("h", list(CRAIG_ITERATIONS))
def test_2d_stage_iterations_flat_in_h(h):
    grid = pl.build_grid(pl.Domain.ball(1.0), h)
    _, rep = pl.solve_poincare_lelong(pl.standard_11_form(grid), pl.Weight.abs2(2), grid)
    for stage, limit in zip((rep.stage_poincare, rep.stage_dbar), CRAIG_ITERATIONS[h]):
        assert stage.converged
        assert stage.iterations <= limit


def _solve_ratio(solve, make):
    """The read-out of the ratio of solve on make(grid, |x|^2), phi = |x|^2."""
    def readout(grid):
        r2 = (grid.coords ** 2).sum(axis=0)
        _, rep = solve(make(grid, r2), pl.Weight.abs2(grid.dim), grid, tol=1e-10)
        return [rep.ratio]
    return readout


def _c2_pipeline_stage_ratios(grid):
    """The ratios of both stages of the pipeline on i (dz1^dzbar1 + dz2^dzbar2)."""
    f = pl.ComplexForm.zeros(grid, (1, 1))
    f.coeffs[[0, 3]] = 1j
    _, rep = pl.solve_poincare_lelong(f, pl.Weight.abs2(4), grid, tol=1e-10)
    return [rep.stage_poincare.ratio, rep.stage_dbar.ratio]


# the weighted mean and variance of |z|^2 over the unit ball of C^2
C2_MEAN = (2 - 5 / np.e) / (1 - 2 / np.e)
C2_VAR = (6 - 16 / np.e) / (1 - 2 / np.e) - C2_MEAN ** 2
DISK_H = (1 / 32, 1 / 64, 1 / 128)
BALL4_H = (1 / 4, 1 / 6, 1 / 8)

# exact continuum ratios with phi = |x|^2, each with its domain, its h and
# the read-out of the measured ratios. On the unit disk: the worst cases of
# stage 1 and of the C^1 dbar stage (suprema 1/8 and 1/2), and dzbar, whose
# minimum-norm solution is zbar (the weighted mean of |z|^2). In C^2: both
# stages of the pipeline on i d dbar |z|^2, whose stage solutions are radial
# (m/8 and Var/m, m and Var the mean and variance of |z|^2), and on the ball
# of radius sqrt 2 the top-degree worst case of stage 1 (supremum 1/12)
CLOSED_FORM_RATIOS = {
    "poincare_worst_case": (
        pl.Domain.ball(1.0), DISK_H, [1 / 8],
        _solve_ratio(pl.solve_poincare,
                     lambda grid, r2: pl.RealForm(grid, 2, (1.0 - r2)[None]))),
    "dbar_worst_case": (
        pl.Domain.ball(1.0), DISK_H, [1 / 2],
        _solve_ratio(pl.solve_dbar,
                     lambda grid, r2: pl.ComplexForm(grid, (0, 1), (1.0 - r2)[None] + 0j))),
    "dbar_dzbar": (
        pl.Domain.ball(1.0), DISK_H, [(1 - 2 / np.e) / (1 - 1 / np.e)],
        _solve_ratio(pl.solve_dbar,
                     lambda grid, r2: pl.ComplexForm(grid, (0, 1), np.ones_like(r2)[None] + 0j))),
    "c2_pipeline_stages": (
        pl.Domain.ball(1.0, dim=4), BALL4_H, [C2_MEAN / 8, C2_VAR / C2_MEAN],
        _c2_pipeline_stage_ratios),
    "c2_top_degree_worst_case": (
        pl.Domain.ball(np.sqrt(2.0), dim=4), BALL4_H, [1 / 12],
        _solve_ratio(pl.solve_poincare,
                     lambda grid, r2: pl.RealForm(grid, 4, (2.0 - r2)[None]))),
}


@pytest.mark.parametrize("case", CLOSED_FORM_RATIOS)
def test_disk_ratio_converges_to_its_closed_form(case):
    # measured orders 0.97-1.08 on the disk, 0.85-1.44 in C^2; on the disk
    # the first-order extrapolation is off by 1.4e-4, 5.8e-4 and 6.9e-4. In
    # C^2 that of the dbar stage is still off by 1.4e-2: the grid solves on
    # a domain about h wider than G, so it has no extrapolation bound there
    domain, hs, exact, readout = CLOSED_FORM_RATIOS[case]
    ratios = np.array([readout(pl.build_grid(domain, h)) for h in hs])
    errors = ratios - exact
    orders = np.log(errors[:-1] / errors[1:]) / np.log(np.divide(hs[:-1], hs[1:]))[:, None]
    assert (errors > 0).all() and (orders >= 0.8).all()
    if domain.dim == 2:
        assert abs(2 * ratios[2, 0] - ratios[1, 0] - exact[0]) <= 1e-3


def test_corollary_constant_formula(disk_grid_coarse):
    c_om, detail = pl.corollary_constant(disk_grid_coarse)
    assert c_om <= 2.0 * np.e * (1 + 1e-9)
    assert c_om >= 2.0 * np.exp(0.9)  # grid max of |x|^2 is near 1
    assert detail["ratio_unweighted"] <= c_om * 1.15


def test_corollary_constant_evaluates_phi_once_per_mask_and_weight(monkeypatch,
                                                                  disk_grid_coarse):
    grid = disk_grid_coarse
    sizes = {int(m.sum()): name for name, m in (("interior", grid.interior),
                                                ("eq", grid.mask_eq), ("dof", grid.mask_dof))}
    calls = []

    def counting(make):
        def build(dim):
            w = make(dim)

            def phi(points):
                calls.append((w.kind, sizes.get(points[0].size, "other")))
                return w.phi(points)
            return pl.Weight(w.kind, phi, w.grad, w.hess, matrix=w.matrix)
        return staticmethod(build)

    monkeypatch.setattr(pl.Weight, "abs2", counting(pl.Weight.abs2))
    monkeypatch.setattr(pl.Weight, "zero", counting(pl.Weight.zero))
    pl.corollary_constant(grid)
    # c_Omega, the pipeline and the unweighted norms share one sharing block
    assert sorted(calls) == [("abs2", "dof"), ("abs2", "eq"), ("abs2", "interior"),
                             ("zero", "eq")]


def test_corollary_radius_scaling():
    grid = pl.build_grid(pl.Domain.ball(0.5), 1 / 32)
    c_om, detail = pl.corollary_constant(grid)
    assert c_om <= 2.0 * np.exp(0.25) * (1 + 1e-9)
    assert detail["ratio_unweighted"] <= c_om * 1.15


def test_corollary_small_radius_limit():
    grid = pl.build_grid(pl.Domain.ball(0.05), 0.0125)
    c_om, _ = pl.corollary_constant(grid)
    assert abs(c_om - 2.0) <= 0.01
