"""The complex structure is defined once, by forms.real_expansion; these
tests hold the derived operators and conversions against hand-expanded
formulas of the interleaved convention z_j = x_{2j-1} + i x_{2j}."""

import numpy as np
import pytest

import pellel as pl
from pellel import bridge, calculus as calc
from pellel.errors import ValidationError
from pellel.forms import (_BIDEGREES, complex_layout, n_complex_coeffs, real_expansion,
                          wirtinger_frame)
from pellel.multiindex import MultiIndex, increasing_indices, index_positions, sort_signature

NS = (1, 2, 3)


def _grid(n):
    # a few nodes suffice: the conversions act node by node
    return pl.build_grid(pl.Domain.ball(2.0, dim=2 * n), 1.0, pad=0)


def _random_form(grid, bidegree, rng):
    shape = (n_complex_coeffs(grid.dim // 2, bidegree),) + grid.shape
    return pl.ComplexForm(grid, bidegree,
                          rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _oracle_complex_terms(n, bidegree, bar):
    """Terms of dbar (bar) or partial, written out per bidegree."""
    s = 1.0j if bar else -1.0j

    def dz(out, inp, k, sign=1.0):
        return [(out, inp, sign * 0.5, 2 * k), (out, inp, sign * s * 0.5, 2 * k + 1)]

    terms = []
    if bidegree == (0, 0):
        for k in range(n):
            terms += dz(k, 0, k)
    elif bidegree == (1, 0) and bar:
        for i in range(n):
            for k in range(n):
                terms += dz(i * n + k, i, k, sign=-1.0)
    elif bidegree == (0, 1) and not bar:
        for k in range(n):
            for i in range(n):
                terms += dz(i * n + k, k, i)
    elif bidegree in ((0, 1), (1, 0)):
        pos = index_positions(n, 2)
        for i in range(n):
            for k in range(i + 1, n):
                q = pos[MultiIndex((i + 1, k + 1))]
                terms += dz(q, k, i) + dz(q, i, k, sign=-1.0)
    return terms


_ORACLE_RAISED = {
    ((0, 0), True): (0, 1), ((0, 0), False): (1, 0),
    ((1, 0), True): (1, 1), ((0, 1), False): (1, 1),
    ((0, 1), True): (0, 2), ((1, 0), False): (2, 0),
}


@pytest.mark.parametrize("n", NS)
def test_complex_terms_match_hand_expansion(n):
    for bd, bar in _ORACLE_RAISED:
        derived = calc.complex_terms(n, bd, bar)
        expected = _oracle_complex_terms(n, bd, bar)
        assert set(derived) == set(expected) and len(derived) == len(expected)
    # dbar on functions keeps its term order, which the dbar solve runs on
    assert list(calc.complex_terms(n, (0, 0), True)) == _oracle_complex_terms(n, (0, 0), True)


def _wedge_rule_terms(n, bidegree, bar):
    """Terms of dbar (bar) or partial by the wedge-sign rule: the derivative
    along d/dz_k = (d/dx_{2k-1} - i d/dx_{2k}) / 2 is wedged with dz_k on
    the left; along d/dzbar_k (+ i) dzbar_k moves past dz_I, with sign
    (-1)^|I|.  Listed by input slot, then k, then axis."""
    out_pos = {IJ: o for o, IJ in enumerate(complex_layout(n, _ORACLE_RAISED[bidegree, bar]))}
    frame = (0.5, 0.5j if bar else -0.5j)
    terms = []
    for s, (I, J) in enumerate(complex_layout(n, bidegree)):
        for k in range(1, n + 1):
            signed = sort_signature((k,) + (J if bar else I), n)
            if signed.sign:
                o = out_pos[(I, signed.index) if bar else (signed.index, J)]
                sign = signed.sign * (-1) ** len(I) if bar else signed.sign
                terms += [(o, s, complex(sign * e), 2 * k - 2 + a) for a, e in enumerate(frame)]
    return tuple(terms)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_complex_terms_and_conj_layout_match_the_wedge_rule(n):
    # the derived tables keep the values, types and order of the rule
    for bd, bar in _ORACLE_RAISED:
        terms = calc.complex_terms(n, bd, bar)
        assert terms == _wedge_rule_terms(n, bd, bar)
        assert all(list(map(type, t)) == [int, int, complex, int] for t in terms)
    # conj(dz_I ^ dzbar_J) = (-1)^(pq) dz_J ^ dzbar_I
    for p, q in _BIDEGREES:
        src = {IJ: k for k, IJ in enumerate(complex_layout(n, (p, q)))}
        sources = tuple(src[J, I] for I, J in complex_layout(n, (q, p)))
        layout = calc.conj_layout(n, (p, q))
        assert layout == (sources, (-1) ** (p * q))
        assert list(map(type, layout[0] + layout[1:])) == [int] * (len(sources) + 1)


@pytest.mark.parametrize("n", NS)
def test_raised_bidegrees_and_coefficient_counts(n):
    counts = {(0, 0): 1, (1, 0): n, (0, 1): n, (1, 1): n * n,
              (2, 0): n * (n - 1) // 2, (0, 2): n * (n - 1) // 2}
    grid = _grid(n)
    for bd in _BIDEGREES:
        assert n_complex_coeffs(n, bd) == counts[bd]
        u = pl.ComplexForm.zeros(grid, bd)
        for bar, op in ((True, calc.dbar), (False, calc.partial)):
            if (bd, bar) in _ORACLE_RAISED:
                assert op(u).bidegree == _ORACLE_RAISED[bd, bar]
            else:
                with pytest.raises(ValidationError):
                    op(u)


@pytest.mark.parametrize("n", NS)
def test_conj_form_matches_swap(n, rng):
    grid = _grid(n)
    for bd in _BIDEGREES:
        f = _random_form(grid, bd, rng)
        got = calc.conj_form(f)
        assert got.bidegree == bd[::-1]
        if bd == (1, 1):
            mat = f.coeffs.reshape((n, n) + grid.shape)
            expected = (-np.conj(np.swapaxes(mat, 0, 1))).reshape(f.coeffs.shape)
        else:
            expected = f.coeffs.conj()
        assert np.array_equal(got.coeffs, expected)


def _real11(grid, rng):
    n = grid.dim // 2
    A = rng.standard_normal((n, n) + grid.shape)
    A = A - np.swapaxes(A, 0, 1)
    B = rng.standard_normal((n, n) + grid.shape)
    B = B + np.swapaxes(B, 0, 1)
    return pl.ComplexForm(grid, (1, 1), (A + 1j * B).reshape((n * n,) + grid.shape))


def _oracle_real2(f11, f20):
    """Real 2-form of f20 + f11 + conj(f20) by the x-x, y-y, x-y blocks."""
    grid, n = f11.grid, f11.n
    pos = index_positions(2 * n, 2)
    mat = f11.coeffs.reshape((n, n) + grid.shape)
    A, B = mat.real, mat.imag
    g = np.zeros((len(pos),) + grid.shape)
    for i in range(n):
        for j in range(n):
            if i < j:
                g[pos[MultiIndex((2 * i + 1, 2 * j + 1))]] += 2.0 * A[i, j]
                g[pos[MultiIndex((2 * i + 2, 2 * j + 2))]] += 2.0 * A[i, j]
            a, b = 2 * i + 1, 2 * j + 2  # x_i axis, y_j axis (1-based)
            sign = 1.0 if a < b else -1.0
            g[pos[MultiIndex(sorted((a, b)))]] += 2.0 * sign * B[i, j]
    for q, (i, j) in enumerate(increasing_indices(n, 2)):
        c = f20.coeffs[q]
        g[pos[MultiIndex((2 * i - 1, 2 * j - 1))]] += 2.0 * c.real
        g[pos[MultiIndex((2 * i, 2 * j))]] -= 2.0 * c.real
        g[pos[MultiIndex((2 * i - 1, 2 * j))]] -= 2.0 * c.imag
        g[pos[MultiIndex((2 * i, 2 * j - 1))]] -= 2.0 * c.imag
    return g


@pytest.mark.parametrize("n", NS)
def test_real_conversions_match_block_formulas(n, rng):
    grid = _grid(n)
    f11 = _real11(grid, rng)
    f20 = _random_form(grid, (2, 0), rng)
    zero20 = pl.ComplexForm.zeros(grid, (2, 0))
    scale = np.abs(f11.coeffs).max()

    g11 = bridge.real11_to_real2(f11)
    assert np.abs(g11.coeffs - _oracle_real2(f11, zero20)).max() <= 1e-15 * scale
    back = bridge.real2_to_real11(g11)
    assert np.abs(back.coeffs - f11.coeffs).max() <= 1e-15 * scale

    g = g11.coeffs + bridge._to_real(f20).coeffs + bridge._to_real(calc.conj_form(f20)).coeffs
    assert np.abs(g - _oracle_real2(f11, f20)).max() <= 1e-14 * scale

    v = pl.RealForm(grid, 1, rng.standard_normal((2 * n,) + grid.shape))
    v10, v01 = bridge.split_1form(v)
    assert np.array_equal(v10.coeffs, 0.5 * v.coeffs[0::2] - 0.5j * v.coeffs[1::2])
    assert np.array_equal(bridge._to_real(v10).coeffs + bridge._to_real(v01).coeffs, v.coeffs)


@pytest.mark.parametrize("n", NS)
def test_complex_hessian_matches_quarter_combinations(n, rng):
    m = rng.standard_normal((2 * n, 2 * n))
    w = pl.Weight.quadratic(m @ m.T)
    pts = rng.standard_normal((2 * n, 3))
    H = w.hess(pts)
    split = bridge.complex_hessian(w, pts)
    for j in range(n):
        for k in range(n):
            aj, bj, ak, bk = 2 * j, 2 * j + 1, 2 * k, 2 * k + 1
            holo = 0.25 * ((H[aj, ak] - H[bj, bk]) - 1j * (H[aj, bk] + H[bj, ak]))
            mixed = 0.25 * ((H[aj, ak] + H[bj, bk]) + 1j * (H[aj, bk] - H[bj, ak]))
            assert np.abs(split.holo[j, k] - holo).max() <= 1e-14 * np.abs(H).max()
            assert np.abs(split.mixed[j, k] - mixed).max() <= 1e-14 * np.abs(H).max()


@pytest.mark.parametrize("n", NS)
def test_expansion_columns_orthogonal_with_norm_two_to_the_degree(n):
    # the inverse conversions divide the adjoint by 2^(p+q), exact only for
    # an orthogonal expanded basis
    for bd in _BIDEGREES:
        E = np.zeros((len(index_positions(2 * n, sum(bd))), n_complex_coeffs(n, bd)),
                     dtype=complex)
        for r, k, e in real_expansion(n, bd):
            E[r, k] = e
        assert np.array_equal(E.conj().T @ E, 2.0 ** sum(bd) * np.eye(E.shape[1]))
    # the Wirtinger frame is dual to the dz_j and annihilates the dzbar_j
    dz = np.zeros((2 * n, n), dtype=complex)
    for r, k, e in real_expansion(n, (1, 0)):
        dz[r, k] = e
    W = wirtinger_frame(n)
    assert np.array_equal(W @ dz, np.eye(n))
    assert np.array_equal(W @ dz.conj(), np.zeros((n, n)))
