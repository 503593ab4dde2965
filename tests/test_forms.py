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


def test_forms_on_grids_of_two_domains_do_not_pair(gauss2):
    # the two grids have one shape; weighted_inner integrated over the first
    # form's masks, and gave 1.9972 one way round and 1.8853 the other
    grids = [pl.build_grid(pl.Domain.ball(1.0, center=c), 1 / 16) for c in ((0.0, 0.0), (0.3, 0.0))]
    assert grids[0].shape == grids[1].shape
    f, g = (pl.RealForm.from_components(grid, 1, {(1,): 1.0}) for grid in grids)
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValidationError, match="different grids"):
            pl.weighted_inner(a, b, gauss2)
        with pytest.raises(ValidationError, match="different grids"):
            a + b


def test_forms_on_equal_grids_built_apart_pair(disk, gauss2):
    f, g = (pl.RealForm.from_components(pl.build_grid(disk, 1 / 16), 1, {(1,): 1.0})
            for _ in range(2))
    assert f.grid is not g.grid
    assert pl.weighted_inner(f, g, gauss2) == pytest.approx(pl.norm2(f, gauss2), rel=1e-15)
    assert np.array_equal((f - g).coeffs, np.zeros_like(f.coeffs))


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


def test_norm2_raises_where_the_weight_underflows():
    # phi = |x|^2 is about 900 on a disk centred at (30, 0), so exp(-phi)
    # underflows to 0 at every node and the norm of a nonzero form reads 0
    grid = pl.build_grid(pl.Domain.ball(1.0, center=(30.0, 0.0)), 1 / 32)
    weight = pl.Weight.abs2(2)
    f = pl.standard_11_form(grid)
    for mask in (None, grid.mask_eq):
        with pytest.raises(ValidationError, match="underflows"):
            pl.norm2(f, weight, mask)
    with pytest.raises(ValidationError, match="underflows"):
        pl.weighted_inner(f, f, weight)
    # an inner product of two forms may be 0, and so is the norm of a zero form
    assert pl.weighted_inner(f, f.copy(), weight) == 0.0
    assert pl.norm2(pl.ComplexForm.zeros(grid, (1, 1)), weight) == 0.0
    assert pl.norm2(f, pl.Weight.zero(2)) > 0.0


def _counting_abs2(dim):
    """phi = |x|^2 as a custom weight that records how many points phi sees."""
    base = pl.Weight.abs2(dim)
    counts = []

    def phi(points):
        counts.append(int(np.prod(np.shape(points)[1:])))
        return base.phi(points)

    return pl.Weight.custom(phi, base.grad, base.hess), counts


def test_weighted_inner_evaluates_phi_on_mask_only(disk_grid_coarse):
    g = disk_grid_coarse
    weight, counts = _counting_abs2(2)
    f = pl.RealForm.from_components(g, 1, {(1,): 1.0})
    for mask, nodes in ((None, g.interior), (g.mask_eq, g.mask_eq), (g.mask_dof, g.mask_dof)):
        counts.clear()
        pl.weighted_inner(f, f, weight, mask)
        assert counts == [int(nodes.sum())]


def _box_then_mask(f, g, weight, mask):
    """The weighted inner product as a box-wide formula: exp(-phi) and the
    pointwise product at every box node, then the sum over the mask."""
    grid = f.grid
    w = np.exp(-weight.phi(grid.coords)) * grid.cell_volume
    pointwise = np.zeros(grid.shape, dtype=f.coeffs.dtype)
    for a, b in zip(f.coeffs, g.coeffs):
        pointwise = pointwise + a * np.conj(b)
    return np.sum((pointwise * w)[mask])


@pytest.mark.parametrize("dim, h", [(2, 1 / 16), (4, 1 / 4)])
def test_weighted_inner_matches_box_formula(dim, h, rng):
    grid = pl.build_grid(pl.Domain.ball(1.0, dim=dim), h)
    weight = pl.Weight.abs2(dim)

    def real(degree):
        n = len(pl.RealForm.zeros(grid, degree).coeffs)
        return pl.RealForm(grid, degree, rng.standard_normal((n,) + grid.shape))

    def cplx(bidegree):
        n = len(pl.ComplexForm.zeros(grid, bidegree).coeffs)
        shape = (n,) + grid.shape
        return pl.ComplexForm(grid, bidegree, rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))

    pairs = [(real(1), real(1)), (real(2), real(2)), (cplx((1, 1)), cplx((1, 1))),
             (cplx((0, 1)), cplx((0, 1))), (real(dim + 1), real(dim + 1))]
    for f, g in pairs:
        for mask in (grid.interior, grid.mask_eq, grid.mask_dof):
            got = pl.weighted_inner(f, g, weight, mask)
            want = _box_then_mask(f, g, weight, mask)
            assert type(got) is (float if isinstance(f, pl.RealForm) else complex)
            assert abs(got - want) <= 1e-14 * abs(want)


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


def test_csv_from_another_grid_or_form_type_raises(tmp_path, disk, rng):
    g8 = pl.build_grid(disk, 1 / 8)
    f = pl.RealForm(g8, 1, rng.standard_normal((2,) + g8.shape))
    path = tmp_path / "f.csv"
    forms.to_csv(f, path)
    for h in (1 / 16, 1 / 4):  # more nodes, then fewer nodes than the table's grid
        with pytest.raises(ValidationError, match="not the layout"):
            forms.from_csv(pl.build_grid(disk, h), 1, path)
    for degree in (0, 2):  # one coefficient per node instead of two
        with pytest.raises(ValidationError, match="not the layout"):
            forms.from_csv(g8, degree, path)
    path.write_text("node,coeff,value\n0,0,x\n")
    with pytest.raises(ValidationError, match="unreadable"):
        forms.from_csv(g8, 1, path)
    path.write_text("")
    with pytest.raises(ValidationError, match="without a header"):
        forms.from_csv(g8, 1, path)
    with pytest.raises(ValidationError, match="needs a bidegree"):  # complex table, degree
        forms.to_csv(pl.ComplexForm.zeros(g8, (0, 1)), path)
        forms.from_csv(g8, 1, path)
    with pytest.raises(ValidationError, match="needs a degree"):  # real table, bidegree
        forms.to_csv(f, path)
        forms.from_csv(g8, (0, 1), path)


@pytest.mark.parametrize("kind", [3, (2, 0)], ids=["real_degree3", "complex_20"])
def test_csv_roundtrip_without_coefficients(tmp_path, disk_grid_coarse, kind):
    # a degree-3 form in 2-D and a (2,0) form over C^1 have no coefficients:
    # the table is the header alone
    g = disk_grid_coarse
    f = pl.ComplexForm.zeros(g, kind) if isinstance(kind, tuple) else pl.RealForm.zeros(g, kind)
    assert f.coeffs.shape == (0,) + g.shape
    path = tmp_path / "f.csv"
    forms.to_csv(f, path)
    assert len(path.read_text().splitlines()) == 1
    back = forms.from_csv(g, kind, path)
    assert type(back) is type(f) and back.coeffs.shape == f.coeffs.shape


def test_form_validation(disk_grid_coarse):
    with pytest.raises(ValidationError):
        pl.RealForm(disk_grid_coarse, 1, np.zeros((3,) + disk_grid_coarse.shape))
    bad = np.zeros((2,) + disk_grid_coarse.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        pl.RealForm(disk_grid_coarse, 1, bad)
    with pytest.raises(ValidationError):
        pl.ComplexForm(disk_grid_coarse, (2, 1), np.zeros((1,) + disk_grid_coarse.shape))
