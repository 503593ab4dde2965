import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import pellel as pl
from pellel import calculus as calc
from pellel.errors import ResolutionError, UnsupportedDomainError, ValidationError


def test_build_grid_small_disk_four_nodes():
    # diameter-1 disk at spacing 1/2: the only interior cell centers are
    # the four at (+-1/4, +-1/4)
    dom = pl.Domain.ball(0.5)
    grid = pl.build_grid(dom, 0.5)
    pts = grid.coords[:, grid.interior].T
    assert grid.interior.sum() == 4
    expected = {(0.25, 0.25), (0.25, -0.25), (-0.25, 0.25), (-0.25, -0.25)}
    assert {tuple(np.round(p, 12)) for p in pts} == expected


def test_build_grid_too_coarse_raises():
    with pytest.raises(ResolutionError):
        pl.build_grid(pl.Domain.ball(0.5), 2.0)


def test_build_grid_invalid_spacing():
    with pytest.raises(ValidationError):
        pl.build_grid(pl.Domain.ball(1.0), 0.0)


@pytest.mark.parametrize("h", [1e-310, 1e-300, 1e-12])
def test_build_grid_too_fine_raises_before_allocating(h):
    # 1e-300 and 1e-12 once escaped as a ValueError from np.arange and an
    # _ArrayMemoryError asking for 14.6 TiB; 1/1e-310 overflows a float
    with pytest.raises(ResolutionError, match="more nodes than an array can hold"):
        pl.build_grid(pl.Domain.ball(1.0), h)


@pytest.mark.parametrize("a", [1e300, 1e-200, float("inf"), 1e-160])
def test_semi_axes_need_positive_finite_squares(a):
    # 1e300 once overflowed and 1e-200 divided by zero in hess_rho; the
    # square of 1e-160 is a positive subnormal, but 2 / a**2 is infinite
    with pytest.raises(ValidationError, match="squares"):
        pl.Domain.ball(a)
    with pytest.raises(ValidationError, match="squares"):
        pl.Domain.ellipsoid((1.0, a))


@pytest.mark.parametrize("a", [1.1e-154, 1.5e-154])
def test_tiny_ball_passes_regularity_and_has_no_node_at_h_one(a):
    # the norm of grad rho once overflowed at 1.1e-154, and rho's
    # y**2 / a**2 at the outer nodes of the 1.5e-154 grid; both warned
    domain = pl.Domain.ball(a)
    domain.validate_regularity()
    assert domain.rho(np.full((2, 1), 2.5))[0] == np.inf
    with pytest.raises(ResolutionError, match="no interior nodes"):
        pl.build_grid(domain, 1.0)


def test_build_grid_matches_brute_force_count():
    dom = pl.Domain.ellipsoid((1.0, 2.0))
    h = 0.25
    grid = pl.build_grid(dom, h)
    ks = np.arange(-40, 40)
    xs = (ks + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    brute = int(np.sum(X**2 / 1.0 + Y**2 / 4.0 < 1.0))
    assert grid.interior.sum() == brute


def test_margin_shrinks_interior():
    dom = pl.Domain.ball(1.0)
    full = pl.build_grid(dom, 1 / 16).interior.sum()
    shrunk = pl.build_grid(dom, 1 / 16, margin=0.5).interior.sum()
    assert 0 < shrunk < full


def test_interior_count_approaches_volume():
    dom = pl.Domain.ball(1.0)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = pl.build_grid(dom, h)
        errs.append(abs(g.interior.sum() * h**2 - np.pi))
    assert errs[-1] < 0.02
    assert errs[-1] < errs[0]


def test_grid_masks_nest():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 16)
    assert np.all(grid.mask_eq[grid.interior])
    assert np.all(grid.mask_dof[grid.mask_eq])


def test_estimate_c_quadratic(disk_grid_coarse):
    w = pl.Weight.abs2(2)
    assert pl.estimate_c(w, disk_grid_coarse) == pytest.approx(2.0, abs=1e-14)
    w = pl.Weight.quadratic(np.diag([1.0, 3.0]))
    assert pl.estimate_c(w, disk_grid_coarse) == pytest.approx(2.0, abs=1e-14)


def test_estimate_c_quartic_matches_scan_oracle(disk_grid_coarse):
    # phi = |x|^2 + x1^4
    def phi(p):
        return p[0]**2 + p[1]**2 + p[0]**4

    def grad(p):
        return np.stack([2 * p[0] + 4 * p[0]**3, 2 * p[1]])

    def hess(p):
        shape = np.shape(p)[1:]
        h = np.zeros((2, 2) + shape)
        h[0, 0] = 2 + 12 * p[0]**2
        h[1, 1] = 2.0
        return h

    w = pl.Weight.custom(phi, grad, hess)
    c = pl.estimate_c(w, disk_grid_coarse)
    # independent scan over interior nodes
    pts = disk_grid_coarse.coords[:, disk_grid_coarse.interior]
    oracle = min(np.linalg.eigvalsh(np.array([[2 + 12 * x**2, 0], [0, 2.0]])).min()
                 for x, _ in pts.T)
    assert c == pytest.approx(oracle, rel=1e-14)
    assert c >= 2.0 - 1e-12


@pytest.mark.parametrize("w", [pl.Weight.abs2(2), pl.Weight.quadratic([[1.0, 0.3], [0.3, 2.0]])])
def test_estimate_c_constant_hessian_matches_node_scan(disk_grid_coarse, w):
    per_node = pl.Weight.custom(w.phi, w.grad, w.hess)  # no matrix: scans the nodes
    assert pl.estimate_c(w, disk_grid_coarse) == pl.estimate_c(
        per_node, disk_grid_coarse)


def test_estimate_c_quadratic_skips_node_hessians(disk_grid_coarse):
    w = pl.Weight.quadratic([[1.0, 0.3], [0.3, 2.0]])
    shapes = []

    def counting_hess(points):
        shapes.append(np.shape(points))
        return w.hess(points)

    counted = pl.Weight("quadratic", w.phi, w.grad, counting_hess, matrix=w.matrix)
    assert pl.estimate_c(counted, disk_grid_coarse) == pl.estimate_c(
        w, disk_grid_coarse)
    assert shapes == []


def test_estimate_c_rejects_nonconvex(disk_grid_coarse):
    with pytest.raises(ValidationError):
        pl.estimate_c(pl.Weight.zero(2), disk_grid_coarse)


def test_estimate_c_rotation_invariant(disk_grid_coarse):
    a = np.diag([1.0, 3.0])
    th = 0.7
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c1 = pl.estimate_c(pl.Weight.quadratic(a), disk_grid_coarse)
    c2 = pl.estimate_c(pl.Weight.quadratic(q.T @ a @ q), disk_grid_coarse)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_weight_validation():
    with pytest.raises(ValidationError):
        pl.Weight.quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        pl.Weight.quadratic(-np.eye(2))  # negative


def test_ball_dim_follows_center():
    assert pl.Domain.ball(1.0).dim == 2
    assert pl.Domain.ball(1.0, dim=4).center == (0.0,) * 4
    assert pl.Domain.ball(1.0, center=(0.5, 0.0, 0.0)).dim == 3
    assert pl.Domain.ball(1.0, center=(0.0, 0.0, 0.0, 0.0), dim=4).dim == 4
    with pytest.raises(ValidationError):
        pl.Domain.ball(1.0, center=(0.0, 0.0), dim=4)


@pytest.mark.parametrize("dim,h", [(2, 1 / 16), (4, 1 / 4)])
def test_quadratic_phi_matches_einsum(dim, h, rng):
    a = rng.standard_normal((dim, dim))
    a = a @ a.T
    grid = pl.build_grid(pl.Domain.ball(1.0, center=(0.3,) * dim), h)
    phi = pl.Weight.quadratic(a).phi
    for points in (grid.coords, grid.compact(grid.coords, grid.mask_eq)):
        expected = np.einsum("i...,ij,j...->...", points, a, points)
        assert phi(points).shape == expected.shape
        assert np.abs(phi(points) - expected).max() <= 1e-14 * np.abs(expected).max()


def test_boundary_quadrature_circle_four_nodes():
    quad4 = pl.boundary_quadrature(pl.Domain.ball(1.0), 4)
    angles = np.arctan2(quad4.nodes[1], quad4.nodes[0]) % (2 * np.pi)
    assert np.allclose(sorted(angles), [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)
    assert np.allclose(quad4.ds, np.pi / 2)


def test_boundary_quadrature_circumference():
    q = pl.boundary_quadrature(pl.Domain.ball(1.0), 1024)
    assert abs(q.ds.sum() - 2 * np.pi) < 1e-10
    # weights * |grad rho| = surface weights
    assert abs((q.weights * q.grad_norm).sum() - 2 * np.pi) < 1e-10


def test_boundary_quadrature_ellipse_perimeter_oracle():
    a, b = 1.0, 2.0
    q = pl.boundary_quadrature(pl.Domain.ellipsoid((a, b)), 4096)
    oracle, err = quad(lambda t: np.hypot(a * np.sin(t), b * np.cos(t)),
                       0.0, 2 * np.pi, epsabs=1e-12, limit=200)
    assert err < 1e-9
    assert abs(q.ds.sum() - oracle) < 1e-6


def test_boundary_quadrature_disk_second_moment():
    q = pl.boundary_quadrature(pl.Domain.ball(1.0), 1024)
    val = float(np.sum(q.ds * q.nodes[0]**2))
    assert abs(val - np.pi) < 1e-6


def test_boundary_quadrature_sphere_area():
    q = pl.boundary_quadrature(pl.Domain.ball(2.0, dim=3), 5000)
    assert abs(q.ds.sum() - 4 * np.pi * 4.0) < 1e-6


def test_boundary_quadrature_unsupported_dimension():
    with pytest.raises(UnsupportedDomainError):
        pl.boundary_quadrature(pl.Domain.ball(1.0, dim=4), 32)


def test_domain_regularity_check():
    pl.Domain.ball(1.0).validate_regularity()
    pl.Domain.ellipsoid((0.5, 2.0, 1.0)).validate_regularity()


@pytest.mark.parametrize("dim, h", [(2, 1 / 8), (4, 1 / 3)], ids=["2d", "4d"])
@pytest.mark.parametrize("ncoeff, dtype", [(2, float), (3, complex), (0, float), (0, complex)],
                         ids=["real", "complex", "real_empty", "complex_empty"])
def test_compact_expand_roundtrip(dim, h, ncoeff, dtype, rng):
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=dim), h)
    a = rng.standard_normal((ncoeff,) + grid.shape).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal(a.shape)
    for mask in (grid.interior, grid.mask_eq, grid.mask_dof):
        c = grid.compact(a, mask)
        assert c.flags.c_contiguous
        assert c.shape == (ncoeff, int(mask.sum())) and c.dtype == a.dtype
        assert np.array_equal(c, a[:, mask])
        back = grid.expand(c, mask)
        assert back.dtype == a.dtype
        assert np.array_equal(back, np.where(mask, a, 0))
    assert np.array_equal(grid.compact(grid.coords, grid.mask_eq),
                          grid.coords[:, grid.mask_eq])


def test_weight_values_at_mask_nodes():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 8)
    w = pl.Weight.abs2(2)
    got = grid.weight_values(w, grid.mask_eq)
    np.testing.assert_allclose(got, np.exp(-np.sum(grid.coords**2, axis=0))[grid.mask_eq],
                               rtol=1e-14)


def test_mask_nodes_searched_once_per_sharing_block(monkeypatch, rng):
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 8)
    w = pl.Weight.abs2(2)
    a = rng.standard_normal((2,) + grid.shape)
    own = (grid.interior, grid.mask_eq, grid.mask_dof)
    searched = []
    flatnonzero = np.flatnonzero

    def counted(mask):
        searched.append(mask)
        return flatnonzero(mask)

    def use(mask):
        # compact, expand and weight_values each take the mask's nodes
        c = grid.compact(a, mask)
        assert np.array_equal(c, a[:, mask])
        assert np.array_equal(grid.expand(c, mask), np.where(mask, a, 0))
        assert np.array_equal(grid.weight_values(w, mask),
                              np.exp(-w.phi(grid.coords[:, mask])))

    monkeypatch.setattr(np, "flatnonzero", counted)
    for _ in range(2):
        # each block searches each of the grid's own masks once, and drops
        # the indices on exit
        with grid.sharing():
            for _ in range(3):
                for mask in own:
                    use(mask)
            assert len(searched) == 3
            # any other mask is searched on every call
            other = grid.mask_dof & ~grid.mask_eq
            assert np.array_equal(grid.compact(a, other), a[:, other])
            assert np.array_equal(grid.compact(a, other.copy()), a[:, other])
            assert len(searched) == 5
        del searched[:]
    # outside a block every call searches afresh
    for mask in own:
        use(mask)
    assert len(searched) == 3 * len(own)
    # a block relies on the grid's masks staying as built
    with pytest.raises(ValueError):
        grid.mask_eq[0, 0] = True


def test_sharing_block_builds_each_value_of_its_own_masks_once():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 8)
    w = pl.Weight.abs2(2)
    eq, dof = grid.mask_eq, grid.mask_dof
    mask = eq.copy()
    values = {"phi": lambda: grid.phi_values(w, eq),
              "exp": lambda: grid.weight_values(w, eq),
              "stencils": lambda: grid.stencils(eq, dof)}
    # outside a block each value is built on every call
    for get in values.values():
        assert get() is not get()
    with grid.sharing():
        kept = {name: get() for name, get in values.items()}
        with grid.sharing():  # a nested block shares the outermost
            for name, get in values.items():
                assert get() is kept[name]
        for name, get in values.items():
            assert get() is kept[name]
        assert not kept["phi"].flags.writeable and not kept["exp"].flags.writeable
        # one set of tables per (row mask, column mask, transpose)
        assert grid.stencils(dof, eq, transpose=True) is not kept["stencils"]
        # any other mask is built on every call
        assert grid.phi_values(w, mask) is not grid.phi_values(w, mask)
        assert grid.weight_values(w, mask) is not grid.weight_values(w, mask)
        assert grid.stencils(mask, dof) is not grid.stencils(mask, dof)
    # the block drops everything on exit
    for name, get in values.items():
        assert get() is not kept[name]
    assert np.array_equal(kept["phi"], w.phi(grid.coords[:, eq]))
    assert np.array_equal(kept["exp"], np.exp(-w.phi(grid.coords[:, eq])))
    fresh = calc.mask_stencils(eq, dof, grid.h)
    for axis, fresh_axis in zip(kept["stencils"], fresh):
        for (index, coef), (fresh_index, fresh_coef) in zip(axis, fresh_axis):
            assert np.array_equal(index, fresh_index) and np.array_equal(coef, fresh_coef)


def test_two_weights_in_one_sharing_block_get_their_own_values():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 8)
    w, other = pl.Weight.abs2(2), pl.Weight.quadratic([[1.0, 0.3], [0.3, 2.0]])
    with grid.sharing():
        for mask in (grid.interior, grid.mask_eq, grid.mask_dof):
            for weight in (w, other, w):
                phi = weight.phi(grid.coords[:, mask])
                assert np.array_equal(grid.phi_values(weight, mask), phi)
                assert np.array_equal(grid.weight_values(weight, mask), np.exp(-phi))
        # a weight that lives only for one call keeps its values apart too:
        # the block holds it, so the next weight cannot take its id
        phi = w.phi(grid.coords[:, grid.mask_eq])
        scaled = [pl.Weight.quadratic(scale * np.eye(2)) for scale in range(4)]
        for _ in range(2):
            for scale, weight in enumerate(scaled):
                temporary = pl.Weight("quadratic", weight.phi, weight.grad, weight.hess)
                assert np.array_equal(grid.phi_values(temporary, grid.mask_eq), scale * phi)
                del temporary


def test_restrict_and_extend_between_nested_masks(rng):
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=4), 1 / 4)
    a = rng.standard_normal((3,) + grid.shape)
    for sub, mask in ((grid.interior, grid.mask_eq), (grid.mask_eq, grid.mask_dof),
                      (grid.interior, grid.mask_dof)):
        on_sub, on_mask = grid.compact(a, sub), grid.compact(a, mask)
        assert np.array_equal(grid.restrict(on_mask, mask, sub), on_sub)
        assert np.array_equal(grid.extend(on_sub, sub, mask),
                              grid.compact(np.where(sub, a, 0.0), mask))
    with pytest.raises(ValidationError, match="outside the mask"):
        grid.restrict(grid.compact(a, grid.mask_eq), grid.mask_eq, grid.mask_dof)


@pytest.mark.parametrize("dim, h", [(2, 1 / 64), (4, 1 / 8)], ids=["2d", "4d"])
def test_build_grid_peak_memory_and_coordinates(dim, h):
    domain = pl.Domain.ball(1.0, dim=dim)
    tracemalloc.start()
    try:
        grid = pl.build_grid(domain, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * grid.coords.nbytes
    reference = np.stack(np.meshgrid(*grid.axes, indexing="ij"))
    assert grid.coords.dtype == reference.dtype and np.array_equal(grid.coords, reference)
    assert np.array_equal(grid.interior, domain.rho(reference) < 0)
