import numpy as np
import pytest
from scipy.integrate import quad

import pellel as pl
from pellel.errors import ResolutionError, UnsupportedDomainError, ValidationError


def test_build_grid_small_disk_four_nodes():
    # diameter-1 disk at spacing 1/2: the only interior cell centers are
    # the four at (+-1/4, +-1/4)
    dom = pl.Domain.ball(0.5)
    grid = pl.build_grid(dom, 0.5)
    pts = grid.coords[:, grid.interior].T
    assert grid.interior_count == 4
    expected = {(0.25, 0.25), (0.25, -0.25), (-0.25, 0.25), (-0.25, -0.25)}
    assert {tuple(np.round(p, 12)) for p in pts} == expected


def test_build_grid_too_coarse_raises():
    with pytest.raises(ResolutionError):
        pl.build_grid(pl.Domain.ball(0.5), 2.0)


def test_build_grid_invalid_spacing():
    with pytest.raises(ValidationError):
        pl.build_grid(pl.Domain.ball(1.0), 0.0)


def test_build_grid_matches_brute_force_count():
    dom = pl.Domain.ellipsoid((1.0, 2.0))
    h = 0.25
    grid = pl.build_grid(dom, h)
    ks = np.arange(-40, 40)
    xs = (ks + 0.5) * h
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    brute = int(np.sum(X**2 / 1.0 + Y**2 / 4.0 < 1.0))
    assert grid.interior_count == brute


def test_margin_shrinks_interior():
    dom = pl.Domain.ball(1.0)
    full = pl.build_grid(dom, 1 / 16).interior_count
    shrunk = pl.build_grid(dom, 1 / 16, margin=0.5).interior_count
    assert 0 < shrunk < full


def test_interior_count_approaches_volume():
    dom = pl.Domain.ball(1.0)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = pl.build_grid(dom, h)
        errs.append(abs(g.interior_count * h**2 - np.pi))
    assert errs[-1] < 0.02
    assert errs[-1] < errs[0]


def test_grid_masks_nest():
    grid = pl.build_grid(pl.Domain.ball(1.0), 1 / 16)
    assert np.all(grid.mask_eq[grid.interior])
    assert np.all(grid.mask_dof[grid.mask_eq])
    assert grid.boundary_adjacent.sum() > 0
    assert np.all(grid.interior[grid.boundary_adjacent])


def test_estimate_c_quadratic(disk, disk_grid_coarse):
    w = pl.Weight.abs2(2)
    assert pl.estimate_c(w, disk, disk_grid_coarse) == pytest.approx(2.0, abs=1e-14)
    w = pl.Weight.quadratic(np.diag([1.0, 3.0]))
    assert pl.estimate_c(w, disk, disk_grid_coarse) == pytest.approx(2.0, abs=1e-14)


def test_estimate_c_quartic_matches_scan_oracle(disk, disk_grid_coarse):
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
    c = pl.estimate_c(w, disk, disk_grid_coarse)
    # independent scan over interior nodes
    pts = disk_grid_coarse.coords[:, disk_grid_coarse.interior]
    oracle = min(np.linalg.eigvalsh(np.array([[2 + 12 * x**2, 0], [0, 2.0]])).min()
                 for x, _ in pts.T)
    assert c == pytest.approx(oracle, rel=1e-14)
    assert c >= 2.0 - 1e-12


def test_estimate_c_rejects_nonconvex(disk, disk_grid_coarse):
    with pytest.raises(ValidationError):
        pl.estimate_c(pl.Weight.zero(2), disk, disk_grid_coarse)


def test_estimate_c_rotation_invariant(disk, disk_grid_coarse):
    a = np.diag([1.0, 3.0])
    th = 0.7
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c1 = pl.estimate_c(pl.Weight.quadratic(a), disk, disk_grid_coarse)
    c2 = pl.estimate_c(pl.Weight.quadratic(q.T @ a @ q), disk, disk_grid_coarse)
    assert c1 == pytest.approx(c2, rel=1e-12)


def test_weight_validation():
    with pytest.raises(ValidationError):
        pl.Weight.quadratic(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValidationError):
        pl.Weight.quadratic(-np.eye(2))  # negative


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


def test_boundary_adjacent_matches_neighbor_scan():
    grid = pl.build_grid(pl.Domain.ellipsoid((1.0, 0.7, 0.5)), 1 / 8)
    outside_neighbor = np.zeros_like(grid.interior)
    for ax in range(grid.dim):
        for step in (-1, 1):
            # the padding keeps interior nodes off the box faces, so no wrap
            outside_neighbor |= ~np.roll(grid.interior, step, axis=ax)
    assert np.array_equal(grid.boundary_adjacent, grid.interior & outside_neighbor)


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
