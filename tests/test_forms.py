import numpy as np
import pytest

import pellel as pl
from pellel import forms
from pellel.errors import ValidationError


def test_dot_examples(disk_grid_coarse):
    g = disk_grid_coarse
    f1 = pl.RealForm.from_components(g, 1, {(1,): 1.0})
    f2 = pl.RealForm.from_components(g, 1, {(2,): 1.0})
    assert np.all(pl.dot(f1, f2) == 0.0)

    w2 = pl.RealForm.from_components(g, 2, {(1, 2): 1.0})
    assert np.all(pl.dot(w2, w2) == 1.0)

    a = pl.RealForm.from_components(g, 1, {(1,): 2.0, (2,): 3.0})
    b = pl.RealForm.from_components(g, 1, {(1,): 1.0, (2,): -1.0})
    assert np.all(pl.dot(a, b) == -1.0)


def test_dot_degree_mismatch(disk_grid_coarse):
    f = pl.RealForm.zeros(disk_grid_coarse, 1)
    g = pl.RealForm.zeros(disk_grid_coarse, 2)
    with pytest.raises(ValidationError):
        pl.dot(f, g)


def test_weighted_inner_zero(disk_grid_coarse, gauss2):
    z = pl.RealForm.zeros(disk_grid_coarse, 1)
    assert pl.weighted_inner(z, z, gauss2) == 0.0


def test_weighted_inner_area_converges_to_pi(disk):
    w0 = pl.Weight.zero(2)
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = pl.build_grid(disk, h)
        f = pl.RealForm.from_components(g, 1, {(1,): 1.0})
        errs.append(abs(pl.weighted_inner(f, f, w0) - np.pi))
    assert errs[-1] < 0.02
    assert errs[-1] < errs[0]


def test_weighted_inner_gaussian_disk_closed_form(disk, gauss2):
    # polar coordinates: int_disk e^{-r^2} = pi (1 - e^{-1})
    target = np.pi * (1 - np.exp(-1))
    errs = []
    for h in (1 / 16, 1 / 64):
        g = pl.build_grid(disk, h)
        one = pl.RealForm.from_components(g, 0, {(): 1.0})
        errs.append(abs(pl.weighted_inner(one, one, gauss2) - target))
    assert errs[-1] < 0.01
    assert errs[-1] < errs[0]


def test_weighted_inner_symmetric_bilinear_positive(disk_grid_coarse, gauss2, rng):
    g = disk_grid_coarse
    a = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
    b = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
    c = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
    assert pl.weighted_inner(a, b, gauss2) == pytest.approx(
        pl.weighted_inner(b, a, gauss2), rel=1e-12)
    lhs = pl.weighted_inner(a + 2.0 * b, c, gauss2)
    rhs = pl.weighted_inner(a, c, gauss2) + 2.0 * pl.weighted_inner(b, c, gauss2)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    supported = pl.RealForm.zeros(g, 1)
    supported.coeffs[0][g.interior] = 1.0
    assert pl.norm2(supported, gauss2) > 0.0


def test_hermitian_examples(disk_grid_coarse):
    g = disk_grid_coarse
    f = pl.ComplexForm.zeros(g, (1, 1))
    f.coeffs[0] = 1j
    assert np.allclose(pl.norm11(f), 1.0)


def test_hermitian_n2_example():
    dom = pl.Domain.ball(1.0, dim=4)
    g = pl.build_grid(dom, 1 / 4)
    f = pl.ComplexForm.zeros(g, (1, 1))
    f.coeffs[0] = 1.0       # f_{1 1bar}
    f.coeffs[1] = 2j        # f_{1 2bar}
    assert np.allclose(pl.norm11(f), 5.0)


def test_hermitian_conjugate_symmetry(disk_grid_coarse, gauss2, rng):
    g = disk_grid_coarse
    shape = (1,) + g.shape
    a = pl.ComplexForm(g, (0, 1), rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    b = pl.ComplexForm(g, (0, 1), rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    lhs = pl.weighted_inner(a, b, gauss2)
    rhs = np.conj(pl.weighted_inner(b, a, gauss2))
    assert abs(lhs - rhs) < 1e-12 * (abs(lhs) + 1)


def test_norm11_nonnegative_zero_iff_zero(disk_grid_coarse, rng):
    g = disk_grid_coarse
    f = pl.ComplexForm(g, (1, 1), rng.standard_normal((1,) + g.shape)
                       + 1j * rng.standard_normal((1,) + g.shape))
    vals = pl.norm11(f)
    assert np.all(vals >= 0)
    z = pl.ComplexForm.zeros(g, (1, 1))
    assert np.all(pl.norm11(z) == 0.0)


def test_bidegree_mismatch(disk_grid_coarse):
    a = pl.ComplexForm.zeros(disk_grid_coarse, (1, 0))
    b = pl.ComplexForm.zeros(disk_grid_coarse, (0, 1))
    with pytest.raises(ValidationError):
        pl.hermitian_dot(a, b)


def test_csv_roundtrip_real(tmp_path, disk_grid_coarse, rng):
    g = disk_grid_coarse
    f = pl.RealForm(g, 1, rng.standard_normal((2,) + g.shape))
    path = tmp_path / "f.csv"
    forms.to_csv(f, path)
    back = forms.from_csv(g, 1, path)
    assert np.array_equal(back.coeffs, f.coeffs)


def test_csv_roundtrip_complex(tmp_path, disk_grid_coarse, rng):
    g = disk_grid_coarse
    f = pl.ComplexForm(g, (0, 1), rng.standard_normal((1,) + g.shape)
                       + 1j * rng.standard_normal((1,) + g.shape))
    path = tmp_path / "f.csv"
    forms.to_csv(f, path)
    back = forms.from_csv(g, (0, 1), path)
    assert np.array_equal(back.coeffs, f.coeffs)


def test_csv_golden_bytes(tmp_path):
    g = pl.build_grid(pl.Domain.ball(0.2, center=(0.25, 0.25)), 0.5, pad=0)
    assert g.shape == (3, 3)
    re = np.array([0.1, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, -0.0, 1 / 3, 3.0, 1e16])
    im = np.array([0.0, 1.0, -1.0, 1.5e-323, 0.5, 0.0, 2 / 3, -7.25, 1e-5])
    coeffs = re.astype(complex)
    coeffs.imag = im
    f = pl.ComplexForm(g, (0, 0), coeffs.reshape(1, 3, 3))
    path = tmp_path / "f.csv"
    forms.to_csv(f, path)
    assert path.read_bytes() == (
        b"node,coeff,value,value_im\r\n"
        b"0,0,0.1,0.0\r\n"
        b"1,0,-2.5,1.0\r\n"
        b"2,0,1e-300,-1.0\r\n"
        b"3,0,5e-324,1.5e-323\r\n"
        b"4,0,1.7976931348623157e+308,0.5\r\n"
        b"5,0,-0.0,0.0\r\n"
        b"6,0,0.3333333333333333,0.6666666666666666\r\n"
        b"7,0,3.0,-7.25\r\n"
        b"8,0,1e+16,1e-05\r\n")
    back = forms.from_csv(g, (0, 0), path)
    assert np.array_equal(back.coeffs, f.coeffs)
    assert np.array_equal(np.signbit(back.coeffs.real), np.signbit(re.reshape(1, 3, 3)))


def test_form_validation(disk_grid_coarse):
    with pytest.raises(ValidationError):
        pl.RealForm(disk_grid_coarse, 1, np.zeros((3,) + disk_grid_coarse.shape))
    bad = np.zeros((2,) + disk_grid_coarse.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        pl.RealForm(disk_grid_coarse, 1, bad)
    with pytest.raises(ValidationError):
        pl.ComplexForm(disk_grid_coarse, (2, 1), np.zeros((1,) + disk_grid_coarse.shape))
