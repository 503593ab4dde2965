import numpy as np
import pytest

import pellel as pl
from pellel import bridge, calculus as calc
from pellel.errors import ValidationError


def test_real11_to_real2_n1(disk_grid_coarse):
    g = disk_grid_coarse
    f = pl.ComplexForm.zeros(g, (1, 1))
    f.coeffs[0] = 1j  # i dz^dzbar
    out = bridge.real11_to_real2(f)
    assert np.allclose(out.coeffs[0], 2.0)  # 2 dx1^dx2


def test_real11_to_real2_zero(disk_grid_coarse):
    f = pl.ComplexForm.zeros(disk_grid_coarse, (1, 1))
    out = bridge.real11_to_real2(f)
    assert np.abs(out.coeffs).max() == 0.0


def test_real11_to_real2_n2_antisymmetric_block():
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 4)
    f = pl.ComplexForm.zeros(g, (1, 1))
    f.coeffs[0 * 2 + 1] = 1.0   # A_{1 2bar} = 1
    f.coeffs[1 * 2 + 0] = -1.0  # A_{2 1bar} = -1
    out = bridge.real11_to_real2(f)
    from pellel.multiindex import MultiIndex, index_positions
    pos = index_positions(4, 2)
    xx = pos[MultiIndex((1, 3))]  # dx1^dx2 in complex labels
    yy = pos[MultiIndex((2, 4))]  # dy1^dy2
    assert np.allclose(out.coeffs[xx], 2.0)
    assert np.allclose(out.coeffs[yy], 2.0)
    others = [k for k in range(out.coeffs.shape[0]) if k not in (xx, yy)]
    assert np.abs(out.coeffs[others]).max() == 0.0


def test_real11_rejects_nonreal(disk_grid_coarse):
    f = pl.ComplexForm.zeros(disk_grid_coarse, (1, 1))
    f.coeffs[0] = 1.0  # A_{1 1bar} = 1 violates antisymmetry
    with pytest.raises(ValidationError):
        bridge.real11_to_real2(f)
    out = bridge.real11_to_real2(f, require_real=False)
    assert out is not None


def test_real2_to_real11_roundtrip(rng):
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 4)
    n = 2
    A = rng.standard_normal((n, n) + g.shape)
    A = A - np.swapaxes(A, 0, 1)
    B = rng.standard_normal((n, n) + g.shape)
    B = 0.5 * (B + np.swapaxes(B, 0, 1))
    f = pl.ComplexForm(g, (1, 1), (A + 1j * B).reshape((n * n,) + g.shape))
    back = bridge.real2_to_real11(bridge.real11_to_real2(f))
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-14 * np.abs(f.coeffs).max()


def test_real2_to_real11_inverse_example(disk_grid_coarse):
    g = disk_grid_coarse
    two_dx_dy = pl.RealForm.from_components(g, 2, {(1, 2): 2.0})
    f = bridge.real2_to_real11(two_dx_dy)
    assert np.allclose(f.coeffs[0], 1j)


def test_real2_to_real11_rejects_block_mismatch():
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 4)
    bad = pl.RealForm.from_components(g, 2, {(1, 3): 1.0})  # x-block only
    with pytest.raises(ValidationError):
        bridge.real2_to_real11(bad)


def test_split_1form_examples(disk_grid_coarse):
    g = disk_grid_coarse
    v = pl.RealForm.from_components(g, 1, {(1,): 1.0})
    v10, v01 = bridge.split_1form(v)
    assert np.allclose(v10.coeffs[0], 0.5)
    assert np.allclose(v01.coeffs[0], 0.5)
    v = pl.RealForm.from_components(g, 1, {(2,): 1.0})
    v10, v01 = bridge.split_1form(v)
    assert np.allclose(v10.coeffs[0], -0.5j)
    assert np.allclose(v01.coeffs[0], 0.5j)
    z = pl.RealForm.zeros(g, 1)
    v10, v01 = bridge.split_1form(z)
    assert np.abs(v10.coeffs).max() == 0.0 and np.abs(v01.coeffs).max() == 0.0


def test_split_conjugate_and_reassembly(disk_grid_coarse, rng):
    g = disk_grid_coarse
    v = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
    v10, v01 = bridge.split_1form(v)
    assert np.abs(np.conj(v10.coeffs) - v01.coeffs).max() == 0.0
    back = bridge._to_real(v10).coeffs + bridge._to_real(v01).coeffs
    assert np.abs(back - v.coeffs).max() == 0.0


def test_norm_convention_factor_four(rng):
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 4)
    n = 2
    A = rng.standard_normal((n, n) + g.shape)
    A = A - np.swapaxes(A, 0, 1)
    B = rng.standard_normal((n, n) + g.shape)
    B = 0.5 * (B + np.swapaxes(B, 0, 1))
    f = pl.ComplexForm(g, (1, 1), (A + 1j * B).reshape((n * n,) + g.shape))
    out = bridge.real11_to_real2(f)
    lhs = pl.dot(out, out)
    rhs = 4.0 * pl.norm11(f)
    assert np.abs(lhs - rhs).max() <= 1e-12 * rhs.max()


def test_closedness_transport():
    # f = i d dbar(|z1|^2 |z2|^2) is d-closed; its real 2-form is closed too
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 6)
    X1, Y1, X2, Y2 = g.coords
    z1 = X1 + 1j * Y1
    z2 = X2 + 1j * Y2
    f = pl.ComplexForm.zeros(g, (1, 1))
    f.coeffs[0] = 1j * np.abs(z2)**2          # f_{1 1bar}
    f.coeffs[1] = 1j * np.conj(z1) * z2       # f_{1 2bar}
    f.coeffs[2] = 1j * z1 * np.conj(z2)       # f_{2 1bar}
    f.coeffs[3] = 1j * np.abs(z1)**2          # f_{2 2bar}
    out = bridge.real11_to_real2(f)
    dg = calc.d(out)
    scale = np.abs(out.coeffs).max() / g.h
    assert np.abs(dg.coeffs[:, g.mask_eq]).max() <= 1e-12 * scale


def test_hessian_split_identity_examples(disk_grid_coarse):
    w = pl.Weight.abs2(2)
    for xi in ((1.0, 0.0), (0.3, -0.7), (2.0, 1.0)):
        lhs, rhs = bridge.hessian_split_identity(w, (0.1, 0.2), xi)
        assert lhs == pytest.approx(2 * (xi[0]**2 + xi[1]**2), rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    # phi = x1^2: both sides 2 xi_1^2; blocks are (1/2, 1/2, 1/2)
    w1 = pl.Weight.quadratic(np.diag([1.0, 0.0]))
    lhs, rhs = bridge.hessian_split_identity(w1, (0.0, 0.0), (0.4, 0.9))
    assert lhs == pytest.approx(2 * 0.4**2, rel=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-12)
    split = bridge.complex_hessian(w1, np.zeros((2, 1)))
    assert split.holo[0, 0, 0] == pytest.approx(0.5)
    assert split.mixed[0, 0, 0] == pytest.approx(0.5)
    assert split.anti[0, 0, 0] == pytest.approx(0.5)


def test_hessian_split_identity_random_quadratic(rng):
    m = rng.standard_normal((4, 4))
    a = m @ m.T  # positive semidefinite, symmetric
    w = pl.Weight.quadratic(a)
    for _ in range(20):
        x = rng.standard_normal(4)
        xi = rng.standard_normal(4)
        lhs, rhs = bridge.hessian_split_identity(w, x, xi)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_hessian_split_blocks_structure(rng):
    m = rng.standard_normal((4, 4))
    w = pl.Weight.quadratic(m @ m.T)
    pts = rng.standard_normal((4, 5))
    split = bridge.complex_hessian(w, pts)
    mixed = np.moveaxis(split.mixed, -1, 0)
    assert np.abs(mixed - np.conj(np.swapaxes(mixed, 1, 2))).max() <= 1e-12
    assert np.abs(split.anti - np.conj(split.holo)).max() == 0.0


def test_levi_lower_bound_examples(rng):
    w = pl.Weight.abs2(2)
    levi, bound = bridge.levi_lower_bound(w, 2.0, (0.0, 0.0), (1.0 + 0.0j,))
    assert levi == pytest.approx(1.0)
    assert bound == pytest.approx(1.0)   # equality case
    w2 = pl.Weight.quadratic(2 * np.eye(2))
    levi, bound = bridge.levi_lower_bound(w2, 4.0, (0.0, 0.0), (1.0 + 0.0j,))
    assert levi == pytest.approx(2.0)
    assert levi >= bound - 1e-12


def test_levi_lower_bound_interleaved_diag(rng):
    # phi = x^T diag(2,2,4,4) x: c = 4; Levi holds at random directions
    w = pl.Weight.quadratic(np.diag([2.0, 2.0, 4.0, 4.0]))
    c = 4.0
    for _ in range(1000):
        omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rng.standard_normal(4)
        levi, bound = bridge.levi_lower_bound(w, c, x, omega)
        assert levi >= bound - 1e-10 * max(1.0, abs(levi))


def test_levi_holds_at_interior_nodes(disk_grid_coarse, rng):
    # random convex quadratic weight, Levi bound on grid nodes
    m = rng.standard_normal((2, 2))
    a = m @ m.T + 0.5 * np.eye(2)
    w = pl.Weight.quadratic(a)
    c = pl.estimate_c(w, disk_grid_coarse)
    pts = disk_grid_coarse.coords[:, disk_grid_coarse.interior][:, ::17]
    for x in pts.T:
        omega = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        levi, bound = bridge.levi_lower_bound(w, c, x, omega)
        assert levi >= bound - 1e-10 * max(1.0, abs(levi))
