import numpy as np
import pytest

import pellel as pl
from pellel import verify as V
from pellel.errors import ValidationError
from pellel.multiindex import increasing_indices


def _violation(alpha, domain, quad):
    """Max over boundary nodes and indices I of |sum_j a_{jI} d rho/dx_j|,
    which vanishes on forms in the adjoint domain."""
    a, _ = V._jet(alpha, quad.nodes)
    return float(np.abs(V._normal_component(a, domain.grad_rho(quad.nodes))).max())


def test_poly_basics():
    x1 = V.Poly.variable(2, 1)
    x2 = V.Poly.variable(2, 2)
    p = x1 * x1 * x2 + 3.0 * x2
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert np.allclose(p(pts), [1 * 1 * 0.5 + 1.5, 4 * (-1) - 3])
    dp = p.deriv(1)
    assert np.allclose(dp(pts), [2 * 1 * 0.5, 2 * 2 * (-1)])
    assert p.deriv(2).deriv(2).is_zero


def test_polyform_d_and_signed_access():
    x1 = V.Poly.variable(2, 1)
    x2 = V.Poly.variable(2, 2)
    alpha = V.PolyForm(2, 1, {(1,): x2})  # x2 dx1
    d = alpha.d()
    pts = np.array([[0.3], [0.4]])
    assert np.allclose(d.eval(pts)[0], -1.0)  # d(x2 dx1) = -dx1^dx2
    # signed component access: a_{21} = -a_{12}
    beta = V.PolyForm(2, 2, {(1, 2): x1})
    assert np.allclose(beta.component((2, 1))(pts), -0.3)
    assert beta.component((1, 1)).is_zero


def test_dalpha_identity_hand_examples():
    pts = np.random.default_rng(0).uniform(-1, 1, (2, 50))
    x1 = V.Poly.variable(2, 1)
    x2 = V.Poly.variable(2, 2)
    # alpha = x2 dx1: |da|^2 = 1, gradient sum = 1, cross = 0
    a = V.PolyForm(2, 1, {(1,): x2})
    assert V.check_dalpha_identity(a, pts) <= 1e-14
    # alpha = x2 dx1 + x1 dx2: closed, gradient sum 2, cross 2
    a = V.PolyForm(2, 1, {(1,): x2, (2,): x1})
    d = a.d()
    assert all(p.is_zero for p in d.comps.values()) or not d.comps
    assert V.check_dalpha_identity(a, pts) <= 1e-14


def test_dalpha_identity_random_forms(rng):
    for nvars in (2, 4):
        pts = rng.uniform(-1, 1, (nvars, 100))
        for degree in range(1, nvars + 1):
            for _ in range(10):
                alpha = V.random_polyform(rng, nvars, degree)
                dev = V.check_dalpha_identity(alpha, pts)
                assert dev <= 1e-12


def test_tangential_form_satisfies_boundary_condition(disk):
    quad = pl.boundary_quadrature(disk, 256)
    alpha = V.tangential_1form(disk, V.Poly.variable(2, 1))
    assert _violation(alpha, disk, quad) <= 1e-12


def test_boundary_identity_rotational_hand_value(disk):
    # alpha = -x2 dx1 + x1 dx2 on the unit circle: both sides equal -2
    quad = pl.boundary_quadrature(disk, 64)
    alpha = V.tangential_1form(disk, 1.0)
    grad = disk.grad_rho(quad.nodes)
    comp = [alpha.component((j,)) for j in (1, 2)]
    lhs = sum(comp[k](quad.nodes) * comp[j].deriv(k + 1)(quad.nodes) * grad[j]
              for j in range(2) for k in range(2))
    assert np.allclose(lhs, -2.0, atol=1e-12)
    assert V.check_boundary_identity(alpha, disk, quad) <= 1e-12


def test_boundary_identity_polynomial(disk):
    quad = pl.boundary_quadrature(disk, 1024)
    alpha = V.tangential_1form(disk, V.Poly.variable(2, 1))
    assert V.check_boundary_identity(alpha, disk, quad) <= 1e-8


def test_boundary_identity_on_ellipse():
    dom = pl.Domain.ellipsoid((1.0, 2.0))
    quad = pl.boundary_quadrature(dom, 512)
    g = V.Poly.variable(2, 2)
    alpha = V.tangential_1form(dom, g)
    assert _violation(alpha, dom, quad) <= 1e-10
    assert V.check_boundary_identity(alpha, dom, quad) <= 1e-8


def test_boundary_identity_precondition_failure(disk):
    quad = pl.boundary_quadrature(disk, 64)
    alpha = V.PolyForm(2, 1, {(1,): V.Poly.constant(2, 1.0)})  # dx1
    with pytest.raises(ValidationError):
        V.check_boundary_identity(alpha, disk, quad)


def test_bochner_zero_form(disk, gauss2):
    grid = pl.build_grid(disk, 1 / 16)
    quad = pl.boundary_quadrature(disk, 256)
    zero = V.PolyForm(2, 1, {})
    res = V.check_bochner_identity(zero, gauss2, disk, grid, quad)
    assert res.lhs == 0.0 and res.rhs == 0.0


def test_bochner_identity_disk(disk, gauss2):
    grid = pl.build_grid(disk, 2 / 128)
    quad = pl.boundary_quadrature(disk, 1024)
    alpha = V.tangential_1form(disk, 1.0)
    res = V.check_bochner_identity(alpha, gauss2, disk, grid, quad)
    assert res.deviation <= 0.02 * max(res.lhs, res.rhs)


def test_bochner_refinement_improves(disk, gauss2):
    quad = pl.boundary_quadrature(disk, 1024)
    alpha = V.tangential_1form(disk, V.Poly.variable(2, 1))
    devs = []
    for h in (2 / 128, 2 / 256):
        grid = pl.build_grid(disk, h)
        devs.append(V.check_bochner_identity(alpha, gauss2, disk, grid, quad).deviation)
    assert devs[0] / devs[1] >= 1.5


def test_boundary_term_nonnegative(disk, gauss2):
    # strictly convex rho: the boundary integrand is pointwise nonnegative
    quad = pl.boundary_quadrature(disk, 256)
    alpha = V.tangential_1form(disk, V.Poly.variable(2, 1))
    hess = disk.hess_rho(quad.nodes)
    vals = [alpha.component((j,))(quad.nodes) for j in (1, 2)]
    term = sum(vals[j] * vals[k] * hess[j, k] for j in range(2) for k in range(2))
    assert term.min() >= -1e-14


def test_basic_estimate_margin(disk, gauss2):
    grid = pl.build_grid(disk, 2 / 128)
    for g in (V.Poly.constant(2, 1.0), V.Poly.variable(2, 1)):
        alpha = V.tangential_1form(disk, g)
        margin, ref = V.check_basic_estimate(alpha, gauss2, disk, grid)
        assert margin >= -0.02 * ref


def test_basic_estimate_zero_and_scaling(disk, gauss2):
    grid = pl.build_grid(disk, 1 / 16)
    alpha = V.tangential_1form(disk, 1.0)
    m1, r1 = V.check_basic_estimate(alpha, gauss2, disk, grid)
    alpha10 = V.tangential_1form(disk, 10.0)
    m2, r2 = V.check_basic_estimate(alpha10, gauss2, disk, grid)
    assert m2 == pytest.approx(100.0 * m1, rel=1e-10)
    assert r2 == pytest.approx(100.0 * r1, rel=1e-10)


def test_basic_estimate_margin_is_the_bochner_lhs_minus_reference(disk, gauss2):
    # both checks evaluate |T* a|^2 + |d a|^2 through one helper, so the
    # margin is that of the Bochner identity's left side, to the bit
    grid = pl.build_grid(disk, 1 / 16)
    quad = pl.boundary_quadrature(disk, 256)
    alpha = V.tangential_1form(disk, V.Poly.variable(2, 1))
    margin, ref = V.check_basic_estimate(alpha, gauss2, disk, grid)
    assert ref > 0.0
    assert margin == V.check_bochner_identity(alpha, gauss2, disk, grid, quad).lhs - ref


def test_checks_deterministic(disk):
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    a1 = V.random_polyform(rng1, 2, 1)
    a2 = V.random_polyform(rng2, 2, 1)
    pts = np.random.default_rng(0).uniform(-1, 1, (2, 10))
    assert np.array_equal(a1.eval(pts), a2.eval(pts))


# --- reference formulas as plain loops over (I, j, k) and component() -----

def _close(value, oracle):
    scale = max(float(np.abs(oracle).max()), 1e-300)
    assert float(np.abs(np.asarray(value) - oracle).max()) <= 1e-12 * scale


def _loop_t_star(alpha, gradphi, pts):
    n = alpha.nvars
    idxs = increasing_indices(n, alpha.degree - 1)
    out = np.zeros((len(idxs),) + pts.shape[1:])
    for pos, I in enumerate(idxs):
        for j in range(1, n + 1):
            a_jI = alpha.component((j,) + tuple(I))
            out[pos] -= a_jI.deriv(j)(pts) - gradphi[j - 1] * a_jI(pts)
    return out


def _loop_violation(alpha, grad_rho, pts):
    n = alpha.nvars
    worst = 0.0
    for I in increasing_indices(n, alpha.degree - 1):
        acc = sum(alpha.component((j,) + tuple(I))(pts) * grad_rho[j - 1]
                  for j in range(1, n + 1))
        worst = max(worst, float(np.abs(acc).max()))
    return worst


def _loop_gradient_and_cross(alpha, pts):
    n = alpha.nvars
    grad = sum(poly.deriv(j)(pts) ** 2
               for poly in alpha.comps.values() for j in range(1, n + 1))
    cross = np.zeros(pts.shape[1:])
    for I in increasing_indices(n, alpha.degree - 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                a_kI = alpha.component((k,) + tuple(I))
                a_jI = alpha.component((j,) + tuple(I))
                cross += a_kI.deriv(j)(pts) * a_jI.deriv(k)(pts)
    return grad, cross


def _loop_hessian_form(alpha, hess, pts):
    n = alpha.nvars
    out = []
    for I in increasing_indices(n, alpha.degree - 1):
        vals = [alpha.component((j,) + tuple(I))(pts) for j in range(1, n + 1)]
        out.append(sum(hess[j, k] * vals[j] * vals[k]
                       for j in range(n) for k in range(n)))
    return np.array(out)


@pytest.mark.parametrize("nvars", [2, 4])
def test_jet_contractions_match_loop_oracle(rng, nvars):
    pts = rng.uniform(-1, 1, (nvars, 40))
    m = rng.normal(size=(nvars, nvars))
    weight = pl.Weight.quadratic(m @ m.T + np.eye(nvars))
    domain = pl.Domain.ellipsoid(tuple(rng.uniform(0.5, 2.0, nvars)))
    grad_rho = domain.grad_rho(pts)
    quad = pl.BoundaryQuadrature(pts, np.ones(pts.shape[1]), np.ones(pts.shape[1]))
    for degree in range(1, nvars + 1):
        for _ in range(3):
            alpha = V.random_polyform(rng, nvars, degree)
            a, da = V._jet(alpha, pts)
            _close(V._t_star(a, da, weight.grad(pts)),
                   _loop_t_star(alpha, weight.grad(pts), pts))
            _close(_violation(alpha, domain, quad),
                   _loop_violation(alpha, grad_rho, pts))
            grad, cross = _loop_gradient_and_cross(alpha, pts)
            _close(V._gradient_sum(da, degree), grad)
            _close(np.einsum("ijk...,ikj...->...", da, da), cross)
            for hess in (weight.hess(pts), domain.hess_rho(pts)):
                _close(V._hessian_form(hess, a), _loop_hessian_form(alpha, hess, pts))


def test_dalpha_identity_builds_one_monomial_table_for_the_jet_and_one_for_d(rng, monkeypatch):
    # every value and derivative of the jet comes from one table of
    # monomials at the points, and |d a|^2 from one more, for alpha.d()
    nvars = 4
    alpha = V.random_polyform(rng, nvars, 2)
    pts = rng.uniform(-1, 1, (nvars, 20))
    tables = []
    build = V._monomials

    def counted(points, box):
        tables.append(points)
        return build(points, box)

    monkeypatch.setattr(V, "_monomials", counted)
    V.check_dalpha_identity(alpha, pts)
    assert len(tables) == 2 and all(t is pts for t in tables)


def test_random_polyform_keeps_its_coefficients_for_a_seed():
    # the coefficients that scalar integers() and normal() calls drew at
    # this seed, recorded from the dictionary-backed polynomials that the
    # arrays replaced
    alpha = V.random_polyform(np.random.default_rng(3), 4, 2)
    assert sorted(alpha.comps) == list(increasing_indices(4, 2))
    expected = {
        (1, 2): {(0, 0, 1, 1): -0.3526307943415954, (1, 1, 0, 0): -0.8652130762749417,
                 (2, 0, 0, 0): 0.41809884672577885, (2, 1, 0, 0): -0.2155971630897659},
        (1, 3): {(0, 2, 2, 0): -0.505228735614018, (1, 1, 1, 1): -1.0551505512051214,
                 (1, 2, 2, 0): 0.024259565076664623, (2, 2, 2, 0): -0.2385536065733667},
    }
    for index, terms in expected.items():
        coef = alpha.comps[index].coef
        assert np.count_nonzero(coef) == len(terms)
        for exponent, value in terms.items():
            assert coef[exponent] == value


@pytest.mark.parametrize("basic", [False, True], ids=["bochner", "basic"])
def test_integral_checks_reject_a_grid_of_another_domain(basic, disk, gauss2):
    # the radius-2 disk's form and boundary quadrature on a unit-disk grid
    # returned a deviation of 3.82 of 66.7, a mix of two domains' integrals
    big = pl.Domain.ball(2.0)
    alpha = V.tangential_1form(big, V.Poly.variable(2, 1))
    quad = pl.boundary_quadrature(big, 256)

    def check(grid):
        if basic:
            return V.check_basic_estimate(alpha, gauss2, big, grid)
        return V.check_bochner_identity(alpha, gauss2, big, grid, quad)

    with pytest.raises(ValidationError, match="domain"):
        check(pl.build_grid(disk, 1 / 16))
    check(pl.build_grid(big, 1 / 8))
