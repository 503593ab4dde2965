import dataclasses

import numpy as np
import pytest

import pellel as pl
from pellel import calculus as calc
from pellel import minnorm
from pellel.errors import NotInRangeError, ValidationError
from pellel.forms import n_complex_coeffs
from pellel.minnorm import solve_min_norm, weighted_first_order_map
from pellel.multigrid import ParityMultigrid
from pellel.multiindex import num_indices


def d_map(grid, weight, p):
    return weighted_first_order_map(
        grid, weight, calc.d_terms(grid.dim, p),
        num_indices(grid.dim, p), num_indices(grid.dim, p + 1),
        grid.mask_eq, grid.mask_dof)


def test_zero_rhs(disk_grid_coarse, gauss2):
    A = d_map(disk_grid_coarse, gauss2, 0)
    u, rep = solve_min_norm(A, np.zeros(A.target_shape))
    assert rep.iterations == 0
    assert np.abs(u).max() == 0.0


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")], ids=["zero", "negative", "nan"])
def test_nonpositive_tolerance_raises(disk_grid_coarse, gauss2, tol):
    # a NaN tolerance once ran the solve until it stalled, and it passed
    A = d_map(disk_grid_coarse, gauss2, 0)
    with pytest.raises(ValidationError, match="tolerance must be positive"):
        solve_min_norm(A, np.ones(A.target_shape), tol=tol)


def test_adjoint_consistency(disk_grid_coarse, gauss2, rng):
    A = d_map(disk_grid_coarse, gauss2, 0)
    assert A.check_adjoint(rng, n_probes=20) <= 1e-12
    B = d_map(disk_grid_coarse, gauss2, 1)
    assert B.check_adjoint(rng, n_probes=20) <= 1e-12


def test_gradient_solve_with_constant_oracle(disk_grid_coarse):
    # du = dx1 with phi = 0; compare to the best x1 + const candidate
    grid = disk_grid_coarse
    w0 = pl.Weight.zero(2)
    A = d_map(grid, w0, 0)
    f = pl.RealForm.from_components(grid, 1, {(1,): 1.0}).coeffs[:, grid.mask_eq]
    u, rep = solve_min_norm(A, f, tol=1e-10)
    assert rep.relative_residual <= 1e-8
    # residual measured independently
    resid = A.apply(u) - f
    num = A.dot_target(resid, resid)
    den = A.dot_target(f, f)
    assert np.sqrt(num / den) <= 1e-8
    x1 = grid.coords[0][grid.mask_dof][None]
    ones = np.ones_like(x1)
    # weighted least-squares optimal constant
    a_opt = -A.dot_source(x1, ones) / A.dot_source(ones, ones)
    cand = x1 + a_opt
    assert A.dot_source(u, u) <= A.dot_source(cand, cand) * (1 + 1e-8)


def test_dense_pseudoinverse_oracle(rng):
    # tiny instance: compare against the dense weighted minimum-norm solve
    dom = pl.Domain.ball(0.5)
    grid = pl.build_grid(dom, 0.25)
    w = pl.Weight.abs2(2)
    A = d_map(grid, w, 0)
    dof = grid.mask_dof
    n_dof = int(dof.sum())
    assert n_dof <= 200
    # dense matrix on the unit vectors of the dof nodes
    cols = []
    for j in range(n_dof):
        e = np.zeros(A.source_shape)
        e[0, j] = 1.0
        cols.append(A.apply(e).ravel())
    Ad = np.array(cols).T
    phi = w.phi(grid.coords)
    ws = (np.exp(-phi) * grid.cell_volume)[dof]  # source weights on dof nodes
    wt = np.broadcast_to((np.exp(-phi) * grid.cell_volume)[grid.mask_eq],
                         A.target_shape).ravel()
    # minimize u^T W_s u subject to A u = f in the weighted target geometry
    scale_s = np.sqrt(ws)
    scale_t = np.sqrt(wt)
    M = (Ad * scale_t[:, None]) / scale_s[None, :]
    u0 = rng.standard_normal(n_dof)
    f = Ad @ u0  # consistent rhs
    u_tilde = np.linalg.pinv(M, rcond=1e-12) @ (f * scale_t)
    u_dense = u_tilde / scale_s
    u_arr, rep = solve_min_norm(A, f.reshape(A.target_shape), tol=1e-12)
    u_vec = u_arr[0]
    scale = np.abs(u_dense).max()
    assert np.abs(u_vec - u_dense).max() <= 1e-8 * scale


def test_kernel_orthogonality(disk_grid_coarse, gauss2):
    grid = disk_grid_coarse
    A = d_map(grid, gauss2, 0)
    f = pl.RealForm.from_components(grid, 2, {(1, 2): 1.0}).coeffs[:, grid.mask_eq]
    B = d_map(grid, gauss2, 1)
    u, rep = solve_min_norm(B, f, tol=1e-10)
    # constants on the dof mask are annihilated by the masked d
    k = np.ones(B.source_shape)
    # first verify k really is a kernel probe
    assert np.abs(B.apply(np.broadcast_to(1.0, B.source_shape) * 1.0)).max() <= 1e-13
    ip = abs(B.dot_source(u, k))
    assert ip <= 1e-6 * np.sqrt(B.dot_source(u, u) * B.dot_source(k, k))


def test_monotone_residual_history(disk_grid_coarse, gauss2):
    grid = disk_grid_coarse
    A = d_map(grid, gauss2, 1)
    f = pl.RealForm.from_components(grid, 2, {(1, 2): 1.0}).coeffs[:, grid.mask_eq]
    _, rep = solve_min_norm(A, f, tol=1e-10)
    hist = np.array(rep.residual_history)
    assert hist.size > 0
    assert np.all(np.diff(hist) <= 1e-14)


@pytest.mark.parametrize("p, method", [(0, "cgls"), (1, "craig")])
def test_raw_residual_history(disk_grid_coarse, gauss2, rng, p, method):
    A = d_map(disk_grid_coarse, gauss2, p)
    f = A.apply(rng.standard_normal(A.source_shape))
    _, rep = solve_min_norm(A, f, tol=1e-10)
    assert rep.method == method
    raw, best = rep.raw_residual_history, rep.residual_history
    assert len(raw) == len(best) == rep.iterations > 0
    assert all(b <= r for b, r in zip(best, raw))
    # the best entry is the running minimum of the raw ones, capped at |f|
    assert best == [min([1.0] + raw[:k + 1]) for k in range(len(raw))]


@pytest.mark.parametrize("maxiter", [1, 3, 7])
def test_craig_maxiter_stop_recomputes_the_residual(disk_grid_coarse, gauss2, maxiter):
    # the top-degree d in 2-D runs Craig's method; its last iterate's
    # residual is recomputed from f - A u, one matvec after the loop
    A = d_map(disk_grid_coarse, gauss2, 1)
    f = A.apply(np.random.default_rng(0).standard_normal(A.source_shape))
    u, rep = solve_min_norm(A, f, tol=1e-10, maxiter=maxiter)
    assert (rep.method, rep.reason, rep.iterations) == ("craig", "maxiter", maxiter)
    assert rep.matvecs == 2 * maxiter + 1
    r = f - A.apply(u)
    assert rep.relative_residual == np.sqrt(A.dot_target(r, r) / A.dot_target(f, f))


def test_scale_equivariance(disk_grid_coarse, gauss2):
    grid = disk_grid_coarse
    A = d_map(grid, gauss2, 1)
    f = pl.RealForm.from_components(grid, 2, {(1, 2): 1.0}).coeffs[:, grid.mask_eq]
    u1, rep1 = solve_min_norm(A, f, tol=1e-10)
    u4, rep4 = solve_min_norm(A, 4.0 * f, tol=1e-10)
    assert rep1.iterations == rep4.iterations
    scale = np.abs(u1).max()
    assert np.abs(u4 - 4.0 * u1).max() <= 1e-12 * scale


def _not_closed_dbar_case():
    # dbar w = zbar_2 dzbar_1 on the C^2 ball: not dbar-closed, so not in the range
    dom = pl.Domain.ball(1.0, dim=4)
    grid = pl.build_grid(dom, 1 / 3)
    w = pl.Weight.abs2(4)
    A = weighted_first_order_map(
        grid, w, calc.complex_terms(2, (0, 0), True), 1, 2,
        grid.mask_eq, grid.mask_dof, dtype=complex)
    g = np.zeros(A.target_shape, dtype=complex)
    g[0] = (grid.coords[2] - 1j * grid.coords[3])[grid.mask_eq]
    return A, g


def test_not_in_range_raises():
    # target component manufactured orthogonal to the range
    A, g = _not_closed_dbar_case()
    u, rep = solve_min_norm(A, g, tol=1e-12, maxiter=4000)
    # not dbar-closed: the solve stalls at the distance to the range
    assert rep.reason in ("stagnated", "maxiter")
    assert rep.relative_residual > 1e-6
    g_perp = g - A.apply(u)
    with pytest.raises(NotInRangeError):
        solve_min_norm(A, g_perp, tol=1e-12, maxiter=4000)


def test_stagnated_residual_is_that_of_returned_iterate():
    A, g = _not_closed_dbar_case()
    u, rep = solve_min_norm(A, g, tol=1e-12, maxiter=4000)
    assert rep.reason in ("stagnated", "maxiter")
    r = g - A.apply(u)
    expected = np.sqrt(A.dot_target(r, r) / A.dot_target(g, g))
    assert rep.relative_residual == pytest.approx(expected, rel=1e-8)


# (input bidegree, antiholomorphic, output bidegree) of the complex operators
_COMPLEX_OPS = (((0, 0), True, (0, 1)), ((0, 0), False, (1, 0)),
                ((1, 0), True, (1, 1)), ((0, 1), False, (1, 1)),
                ((0, 1), True, (0, 2)), ((1, 0), False, (2, 0)))


def _first_order_ops(dim):
    """(terms, n_in, n_out, dtype) of d on p = 0, 1, 2 and of dbar/partial."""
    ops = [(calc.d_terms(dim, p), num_indices(dim, p), num_indices(dim, p + 1), float)
           for p in range(min(3, dim))]
    n = dim // 2
    for bd, bar, out_bd in _COMPLEX_OPS:
        n_in, n_out = n_complex_coeffs(n, bd), n_complex_coeffs(n, out_bd)
        if n_in and n_out:
            ops.append((calc.complex_terms(n, bd, bar), n_in, n_out, complex))
    return ops


def _touches_face(mask):
    return any(np.take(mask, [0, -1], axis=ax).any() for ax in range(mask.ndim))


@pytest.mark.parametrize("dim,h", [(2, 1 / 8), (4, 1 / 3)])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_compact_map_matches_box_stencils(dim, h, pad, rng):
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=dim), h, pad=pad)
    # pad 0 puts equation nodes, pad <= 1 unknowns on the box faces, where
    # the stencil rows are one-sided
    assert _touches_face(grid.mask_eq) == (pad == 0)
    assert _touches_face(grid.mask_dof) == (pad <= 1)
    w = pl.Weight.abs2(dim)
    for terms, n_in, n_out, dtype in _first_order_ops(dim):
        A = weighted_first_order_map(grid, w, terms, n_in, n_out,
                                     grid.mask_eq, grid.mask_dof, dtype=dtype)
        assert A.source_shape == (n_in, int(grid.mask_dof.sum()))
        assert A.target_shape == (n_out, int(grid.mask_eq.sum()))
        u = rng.standard_normal(A.source_shape)
        if dtype is complex:
            u = u + 1j * rng.standard_normal(A.source_shape)
        box = np.zeros((n_in,) + grid.shape, dtype=dtype)
        box[:, grid.mask_dof] = u
        expected = grid.mask_eq * calc.apply_terms(terms, box, n_out, grid.h)
        got = np.zeros((n_out,) + grid.shape, dtype=dtype)
        got[:, grid.mask_eq] = A.apply(u)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert A.check_adjoint(rng, complex_valued=dtype is complex) <= 1e-12


def _dual_cases():
    """(grid, weight, terms, n_in, dtype) of one-component maps: d on
    1-forms and dbar in C^1 on the disk, on an ellipse with a tilted
    weight and on a grid whose equation mask meets the box faces, and the
    top-degree d in R^4."""
    disk = pl.build_grid(pl.Domain.ball(1.0), 1 / 16)
    ellipse = pl.build_grid(pl.Domain.ellipsoid((1.0, 0.6)), 1 / 16)
    tilted = pl.Weight.quadratic([[1.0, 0.3], [0.3, 2.0]])
    faces = pl.build_grid(pl.Domain.ball(1.0), 1 / 8, pad=0)
    ball4 = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    d1 = (calc.d_terms(2, 1), 2, float)
    dbar1 = (calc.complex_terms(1, (0, 0), True), 1, complex)
    return {
        "disk-d": (disk, pl.Weight.abs2(2)) + d1,
        "disk-dbar": (disk, pl.Weight.abs2(2)) + dbar1,
        "ellipse-d": (ellipse, tilted) + d1,
        "ellipse-dbar": (ellipse, tilted) + dbar1,
        "faces-d": (faces, pl.Weight.abs2(2)) + d1,
        "faces-dbar": (faces, pl.Weight.abs2(2)) + dbar1,
        "ball4-d-top": (ball4, pl.Weight.abs2(4), calc.d_terms(4, 3), 4, float),
    }


_DUAL_CASES = _dual_cases()


def _dual_map(case):
    grid, weight, terms, n_in, dtype = _DUAL_CASES[case]
    return weighted_first_order_map(grid, weight, terms, n_in, 1,
                                    grid.mask_eq, grid.mask_dof, dtype=dtype)


def _random_target(A, rng, dtype):
    f = rng.standard_normal(A.target_shape)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(A.target_shape)
    return f


@pytest.mark.parametrize("case", list(_DUAL_CASES))
def test_dual_solve_matches_cgls(case, rng):
    if case.startswith("faces"):
        assert _touches_face(_DUAL_CASES[case][0].mask_eq)
    A = _dual_map(case)
    assert A.preconditioner is not None
    f = _random_target(A, rng, _DUAL_CASES[case][4])
    tol = 1e-11
    u, rep = solve_min_norm(A, f, tol=tol)
    u_ref, rep_ref = solve_min_norm(dataclasses.replace(A, preconditioner=None), f, tol=tol)
    assert (rep.method, rep_ref.method) == ("craig", "cgls")
    assert rep.converged and rep.relative_residual <= tol
    r = f - A.apply(u)
    assert rep.relative_residual == pytest.approx(
        np.sqrt(A.dot_target(r, r) / A.dot_target(f, f)), rel=1e-6)
    diff = u - u_ref
    assert np.sqrt(A.dot_source(diff, diff) / A.dot_source(u_ref, u_ref)) <= 1e-8
    assert len(rep.residual_history) == rep.iterations
    assert rep.matvecs == 2 * rep.iterations + 1
    assert rep.iterations < rep_ref.iterations


@pytest.mark.parametrize("case", ["disk-d", "disk-dbar", "faces-dbar", "ball4-d-top"])
def test_preconditioner_symmetric_positive(case, rng):
    A = _dual_map(case)
    dtype = _DUAL_CASES[case][4]
    for _ in range(5):
        x, y = _random_target(A, rng, dtype), _random_target(A, rng, dtype)
        xmy = A.dot_target(x, A.preconditioner(y))
        assert abs(xmy - A.dot_target(A.preconditioner(x), y)) <= 1e-12 * abs(xmy)
        assert A.dot_target(x, A.preconditioner(x)) > 0.0


@pytest.mark.parametrize("pad", [2, 0], ids=["disk", "faces"])
@pytest.mark.parametrize("order", ["in_turn"])
def test_complex_preconditioner_call_equals_two_real_calls(monkeypatch, rng, pad, order):
    # a complex residual's two parts take one V-cycle each, in turn (the one
    # order a hierarchy runs them in), through the one real hierarchy, also
    # where the equation mask meets the box faces (pad 0)
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 32, pad=pad)
    A = weighted_first_order_map(grid, pl.Weight.abs2(2), calc.complex_terms(1, (0, 0), True),
                                 1, 1, grid.mask_eq, grid.mask_dof, dtype=complex)
    cycles = []
    cycle = ParityMultigrid._cycle

    def counted(self, depth):
        if depth == 0:
            # the classes on the leading axis of the finest level
            cycles.append(self.levels[0].logical[0])
        cycle(self, depth)

    monkeypatch.setattr(ParityMultigrid, "_cycle", counted)
    r = rng.standard_normal(A.target_shape) + 1j * rng.standard_normal(A.target_shape)
    z = A.preconditioner(r)
    assert cycles == [4, 4]
    parts = A.preconditioner(r.real) + 1j * A.preconditioner(r.imag)
    assert np.abs(z - parts).max() <= 1e-14 * np.abs(parts).max()
    # on the hierarchy itself the parts are bit for bit the real cycles; the
    # map's complex division by w_t may round differently from the real one
    w_s = np.exp(-grid.phi_values(pl.Weight.abs2(2), grid.mask_dof))
    mg = ParityMultigrid(grid.mask_eq, grid.mask_dof, w_s, grid.h, (0.25, 0.25))
    z = mg(r[0])
    assert np.array_equal(z.real, mg(r[0].real)) and np.array_equal(z.imag, mg(r[0].imag))


def test_cgls_keeps_maps_with_several_equation_components(disk_grid_coarse, gauss2, rng):
    assert d_map(disk_grid_coarse, gauss2, 0).preconditioner is None
    A, _ = _not_closed_dbar_case()
    assert A.preconditioner is None
    _, rep = solve_min_norm(A, A.apply(rng.standard_normal(A.source_shape) + 0j), tol=1e-10)
    assert rep.method == "cgls"
    assert rep.matvecs == 1 + 2 * rep.iterations + rep.iterations // minnorm.RECOMPUTE_EVERY


def test_multigrid_built_on_first_solve(monkeypatch, disk_grid_coarse, gauss2):
    built = []

    def counting(*args):
        built.append(args)
        return ParityMultigrid(*args)

    monkeypatch.setattr(minnorm, "ParityMultigrid", counting)
    grid = disk_grid_coarse
    alpha = pl.RealForm.from_components(grid, 2, {(1, 2): lambda x: x[0] ** 2})
    calc.t_star_discrete(alpha, gauss2, grid.mask_eq)
    A = d_map(grid, gauss2, 1)
    assert built == []
    f = grid.compact(alpha.coeffs, grid.mask_eq)
    solve_min_norm(A, f)
    solve_min_norm(A, 2.0 * f)
    assert len(built) == 1


@pytest.fixture()
def built_multigrids(monkeypatch):
    """The arguments of each ParityMultigrid that the maps build."""
    built = []

    def counting(*args):
        built.append(args)
        return ParityMultigrid(*args)

    monkeypatch.setattr(minnorm, "ParityMultigrid", counting)
    return built


@pytest.mark.parametrize("real", [True, False], ids=["real", "nonreal"])
def test_2d_pipeline_builds_one_multigrid(built_multigrids, disk_grid_coarse, gauss2, real):
    # both stages, and both parts of a non-real f, share one hierarchy
    f = pl.standard_11_form(disk_grid_coarse)
    if not real:
        f.coeffs[0] *= 1.0 + 0.5j
    _, rep = pl.solve_poincare_lelong(f, gauss2, disk_grid_coarse)
    assert (rep.parts is None) == real
    assert len(built_multigrids) == 1


def test_2d_stage_maps_share_the_hierarchy(built_multigrids, disk_grid, gauss2, rng):
    # the top-degree d has axis scales 1 and dbar in C^1 1/4, so in one block
    # dbar's preconditioner is 4 times d's, a scaling by a power of two that
    # rounds nothing
    grid = disk_grid
    with grid.sharing():
        d = weighted_first_order_map(grid, gauss2, calc.d_terms(2, 1), 2, 1,
                                     grid.mask_eq, grid.mask_dof)
        dbar = weighted_first_order_map(grid, gauss2, calc.complex_terms(1, (0, 0), True), 1, 1,
                                        grid.mask_eq, grid.mask_dof, dtype=complex)
        r = rng.standard_normal(d.target_shape)
        z = d.preconditioner(r)
        assert np.array_equal(dbar.preconditioner(r), 4.0 * z)
        assert np.array_equal(d.preconditioner(r), z)
    assert len(built_multigrids) == 1


def _dot_cases():
    """(grid, weight, terms, n_in, n_out, dtype): d on functions and dbar
    on the disk, d on 1-forms and dbar in C^2 on the ball."""
    disk = pl.build_grid(pl.Domain.ball(1.0), 1 / 16)
    ball4 = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    return {
        "disk-d": (disk, pl.Weight.abs2(2), calc.d_terms(2, 0), 1, 2, float),
        "disk-dbar": (disk, pl.Weight.abs2(2), calc.complex_terms(1, (0, 0), True), 1, 1,
                      complex),
        "ball4-d": (ball4, pl.Weight.abs2(4), calc.d_terms(4, 1), 4, 6, float),
        "ball4-dbar": (ball4, pl.Weight.abs2(4), calc.complex_terms(2, (0, 0), True), 1, 2,
                       complex),
    }


_DOT_CASES = _dot_cases()


@pytest.mark.parametrize("case", list(_DOT_CASES))
def test_weighted_dots_match_complex_oracle(case, rng):
    # the oracle is the complex-arithmetic form Re sum(x conj(y) w) vol,
    # with the documented weights exp(-(phi - min phi over the unknowns))
    grid, weight, terms, n_in, n_out, dtype = _DOT_CASES[case]
    A = weighted_first_order_map(grid, weight, terms, n_in, n_out,
                                 grid.mask_eq, grid.mask_dof, dtype=dtype)
    phi_s = weight.phi(grid.compact(grid.coords, grid.mask_dof))
    phi_t = weight.phi(grid.compact(grid.coords, grid.mask_eq))
    for dot, phi, shape in ((A.dot_source, phi_s, A.source_shape),
                            (A.dot_target, phi_t, A.target_shape)):
        w = np.exp(-(phi - phi_s.min()))
        for x_complex in (False, True):
            for y_complex in (False, True):
                x = rng.standard_normal(shape) + x_complex * 1j * rng.standard_normal(shape)
                # y leans on x, so the sum does not cancel and the error is
                # relative to a value of its own size
                y = x + 0.5 * (rng.standard_normal(shape)
                               + y_complex * 1j * rng.standard_normal(shape))
                if not y_complex:
                    y = y.real
                expected = float(np.sum((x * y.conj()).real * w) * grid.cell_volume)
                assert dot(x, y) == pytest.approx(expected, rel=1e-13, abs=0.0)
    # real probes: on the complex maps they pair complex images with real
    # vectors in both dots
    assert A.check_adjoint(rng, complex_valued=False) <= 1e-12


def test_c2_cgls_counts_and_adjoints_at_h6(rng):
    # the C^2 pipeline at h = 1/6 takes 44 and 83 CGLS iterations; the
    # kernels of one iteration may move them by rounding only.  Both stage
    # maps stay exact adjoints on their np.intp gather tables
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 6)
    w = pl.Weight.abs2(4)
    _, rep = pl.solve_poincare_lelong(pl.standard_11_form(grid), w, grid)
    assert rep.stage_poincare.method == rep.stage_dbar.method == "cgls"
    assert abs(rep.stage_poincare.iterations - 44) <= 1
    assert abs(rep.stage_dbar.iterations - 83) <= 1
    for terms, n_in, n_out, dtype in ((calc.d_terms(4, 1), 4, 6, float),
                                      (calc.complex_terms(2, (0, 0), True), 1, 2, complex)):
        A = weighted_first_order_map(grid, w, terms, n_in, n_out,
                                     grid.mask_eq, grid.mask_dof, dtype=dtype)
        assert A.check_adjoint(rng, complex_valued=dtype is complex) <= 1e-12
    for rows, cols, transpose in ((grid.mask_eq, grid.mask_dof, False),
                                  (grid.mask_dof, grid.mask_eq, True)):
        for diagonals in calc.mask_stencils(rows, cols, grid.h, transpose):
            assert all(index.dtype == np.intp for index, _ in diagonals)
