"""Grid-sampled real p-forms and complex (p,q)-forms.

Coefficients are stored for every box node in an array of shape
(ncoeff, *grid.shape).  Real p-form coefficients follow the lexicographic
increasing-multiindex layout.  Complex (1,1) forms keep the full n x n
matrix of dz_i wedge dzbar_j coefficients (position i*n + j), because the
Hermitian pointwise product sums over all pairs; (2,0) and (0,2) forms
use increasing pairs.  Integrals are midpoint quadrature over the
interior mask unless another mask is passed explicitly.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import Grid, Weight
from .errors import ValidationError
from .multiindex import increasing_indices, num_indices

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def n_complex_coeffs(n: int, bidegree: tuple[int, int]) -> int:
    p, q = bidegree
    if (p, q) == (0, 0):
        return 1
    if (p, q) in ((1, 0), (0, 1)):
        return n
    if (p, q) == (1, 1):
        return n * n
    if (p, q) in ((2, 0), (0, 2)):
        return n * (n - 1) // 2
    raise ValidationError(f"unsupported bidegree {bidegree}")


@dataclass
class RealForm:
    """Real p-form sampled on the grid box."""

    grid: Grid
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = num_indices(self.grid.dim, self.degree)
        expected = (n,) + self.grid.shape
        if self.coeffs.shape != expected:
            raise ValidationError(
                f"degree-{self.degree} form needs coefficients {expected}, got {self.coeffs.shape}")
        if self.coeffs.size and not np.isfinite(self.coeffs).all():
            raise ValidationError("form has non-finite coefficients")

    @property
    def indices(self):
        return increasing_indices(self.grid.dim, self.degree)

    @staticmethod
    def zeros(grid: Grid, degree: int) -> "RealForm":
        n = num_indices(grid.dim, degree)
        return RealForm(grid, degree, np.zeros((n,) + grid.shape))

    @staticmethod
    def from_components(grid: Grid, degree: int, components: dict) -> "RealForm":
        """Build from {multiindex tuple: callable or constant}; callables
        receive the stacked coordinate array (N, *shape)."""
        f = RealForm.zeros(grid, degree)
        from .multiindex import MultiIndex, index_positions
        pos = index_positions(grid.dim, degree)
        for key, val in components.items():
            k = pos[MultiIndex(key, grid.dim)]
            f.coeffs[k] = val(grid.coords) if callable(val) else float(val)
        return f

    def copy(self) -> "RealForm":
        return RealForm(self.grid, self.degree, self.coeffs.copy())

    def __add__(self, other):
        _check_same(self, other)
        return RealForm(self.grid, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return RealForm(self.grid, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return RealForm(self.grid, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__


@dataclass
class ComplexForm:
    """Complex (p,q)-form over C^n, n = grid.dim / 2, interleaved real
    coordinates z_j = x_{2j-1} + i x_{2j}."""

    grid: Grid
    bidegree: tuple[int, int]
    coeffs: np.ndarray

    def __post_init__(self):
        if self.grid.dim % 2:
            raise ValidationError("complex forms need an even real dimension")
        self.bidegree = tuple(self.bidegree)
        if self.bidegree not in _BIDEGREES:
            raise ValidationError(f"unsupported bidegree {self.bidegree}")
        expected = (n_complex_coeffs(self.n, self.bidegree),) + self.grid.shape
        if self.coeffs.shape != expected:
            raise ValidationError(
                f"bidegree {self.bidegree} needs coefficients {expected}, got {self.coeffs.shape}")
        if not np.iscomplexobj(self.coeffs):
            self.coeffs = self.coeffs.astype(complex)
        if self.coeffs.size and not np.isfinite(self.coeffs).all():
            raise ValidationError("form has non-finite coefficients")

    @property
    def n(self) -> int:
        return self.grid.dim // 2

    @staticmethod
    def zeros(grid: Grid, bidegree) -> "ComplexForm":
        n = n_complex_coeffs(grid.dim // 2, tuple(bidegree))
        return ComplexForm(grid, tuple(bidegree), np.zeros((n,) + grid.shape, dtype=complex))

    def copy(self) -> "ComplexForm":
        return ComplexForm(self.grid, self.bidegree, self.coeffs.copy())

    def __add__(self, other):
        _check_same(self, other)
        return ComplexForm(self.grid, self.bidegree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return ComplexForm(self.grid, self.bidegree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return ComplexForm(self.grid, self.bidegree, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def entry11(self, i: int, j: int) -> np.ndarray:
        """Coefficient of dz_i wedge dzbar_j (1-based) of a (1,1) form."""
        if self.bidegree != (1, 1):
            raise ValidationError("entry11 applies to (1,1) forms")
        return self.coeffs[(i - 1) * self.n + (j - 1)]


def _check_same(f, g):
    if f.grid is not g.grid and f.grid.shape != g.grid.shape:
        raise ValidationError("forms live on different grids")
    df = getattr(f, "degree", None) if isinstance(f, RealForm) else tuple(f.bidegree)
    dg = getattr(g, "degree", None) if isinstance(g, RealForm) else tuple(g.bidegree)
    if type(f) is not type(g) or df != dg:
        raise ValidationError(f"degree mismatch: {df} vs {dg}")


def dot(f: RealForm, g: RealForm) -> np.ndarray:
    """Pointwise scalar product: sum of products over increasing indices."""
    if not isinstance(f, RealForm) or not isinstance(g, RealForm):
        raise ValidationError("dot expects real forms")
    _check_same(f, g)
    if f.coeffs.shape[0] == 0:
        return np.zeros(f.grid.shape)
    return np.einsum("k...,k...->...", f.coeffs, g.coeffs)


def hermitian_dot(f: ComplexForm, g: ComplexForm) -> np.ndarray:
    """Pointwise Hermitian product f . conj(g)."""
    if not isinstance(f, ComplexForm) or not isinstance(g, ComplexForm):
        raise ValidationError("hermitian_dot expects complex forms")
    _check_same(f, g)
    if f.coeffs.shape[0] == 0:
        return np.zeros(f.grid.shape, dtype=complex)
    return np.einsum("k...,k...->...", f.coeffs, g.coeffs.conj())


def norm11(f: ComplexForm) -> np.ndarray:
    """Pointwise |f|**2 = f . conj(f); nonnegative real field."""
    if f.coeffs.shape[0] == 0:
        return np.zeros(f.grid.shape)
    return np.einsum("k...,k...->...", f.coeffs, f.coeffs.conj()).real


def weighted_inner(f, g, weight: Weight, mask: np.ndarray | None = None):
    """Weighted inner product over G: midpoint quadrature of the pointwise
    product against exp(-phi), evaluated at the mask's nodes only.  Real
    pairs give a float, complex pairs a complex number."""
    _check_same(f, g)
    grid = f.grid
    if mask is None:
        mask = grid.interior
    w = grid.weight_values(weight, mask) * grid.cell_volume
    a = grid.compact(f.coeffs, mask)
    b = a if g is f else grid.compact(g.coeffs, mask)
    total = np.sum(np.einsum("kn,kn->n", a, b.conj()) * w)
    return float(total) if isinstance(f, RealForm) else complex(total)


def norm2(f, weight: Weight, mask: np.ndarray | None = None) -> float:
    """Squared weighted norm over G (always real)."""
    v = weighted_inner(f, f, weight, mask)
    return float(v.real) if isinstance(v, complex) else float(v)


def to_csv(form, path) -> None:
    """Flat snapshot: node index (C-order over the box), coefficient
    position (lexicographic layout), value (re/im columns when complex)."""
    complex_form = isinstance(form, ComplexForm)
    flat = form.coeffs.reshape(form.coeffs.shape[0], form.grid.interior.size)
    k, node = np.indices(flat.shape).reshape(2, -1).tolist()
    values = flat.ravel()
    columns = [node, k, map(repr, np.asarray(values.real, dtype=float).tolist())]
    if complex_form:
        columns.append(map(repr, values.imag.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "coeff", "value"] + (["value_im"] if complex_form else []))
        writer.writerows(zip(*columns))


def from_csv(grid: Grid, degree_or_bidegree, path):
    """Rebuild a form written by to_csv on this grid.  Raises
    ValidationError unless the node and coeff columns are exactly the
    layout to_csv writes for this grid and form type."""
    with open(path, newline="") as fh:
        complex_form = "value_im" in next(csv.reader(fh))
    if complex_form != isinstance(degree_or_bidegree, (tuple, list)):
        raise ValidationError(
            f"{path}: a {'complex' if complex_form else 'real'} form table needs a "
            f"{'bidegree (p, q)' if complex_form else 'degree'}, got {degree_or_bidegree!r}")
    if complex_form:
        form = ComplexForm.zeros(grid, tuple(degree_or_bidegree))
    else:
        form = RealForm.zeros(grid, int(degree_or_bidegree))
    flat = form.coeffs.reshape(form.coeffs.shape[0], grid.interior.size)
    try:
        with warnings.catch_warnings():
            # the table of a form without coefficients has a header only
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                               usecols=range(4 if complex_form else 3))
    except ValueError as exc:
        raise ValidationError(f"{path}: unreadable form table ({exc})") from None
    k, node = np.indices(flat.shape).reshape(2, -1)
    if not (np.array_equal(table[:, 0], node) and np.array_equal(table[:, 1], k)):
        raise ValidationError(
            f"{path}: table of {table.shape[0]} rows is not the layout of a "
            f"{form.coeffs.shape[0]}-coefficient form on a grid of shape {grid.shape}")
    # the two parts are stored separately so signed zeros survive the round trip
    flat.real[...] = table[:, 2].reshape(flat.shape)
    if complex_form:
        flat.imag[...] = table[:, 3].reshape(flat.shape)
    return form
