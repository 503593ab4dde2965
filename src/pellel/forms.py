"""Grid-sampled real p-forms and complex (p,q)-forms.

Coefficients are stored for every box node in an array of shape
(ncoeff, *grid.shape).  Real p-form coefficients follow the lexicographic
increasing-multiindex layout.  A complex (p,q) form holds the coefficient
of dz_I wedge dzbar_J at the position complex_layout gives, I and J
increasing; a (1,1) form thus keeps the full n x n matrix (position
i*n + j).  real_expansion defines the complex structure, and with it
every conversion and complex derivative of the package.  Integrals are
midpoint quadrature over the interior mask unless another mask is passed
explicitly.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import Grid, Weight
from .errors import ValidationError
from .multiindex import (MultiIndex, increasing_indices, index_positions, num_indices,
                         sort_signature)

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))
CSV_CHUNK = 4096  # lines per write of to_csv


@lru_cache(maxsize=None)
def complex_layout(n: int, bidegree: tuple[int, int]) -> tuple:
    """(I, J) of the basis form dz_I wedge dzbar_J at each coefficient
    position of a (p,q) form over C^n: I runs over the degree-p and J over
    the degree-q increasing multiindices, lexicographic, I slowest."""
    if bidegree not in _BIDEGREES:
        raise ValidationError(f"unsupported bidegree {bidegree}")
    p, q = bidegree
    return tuple(itertools.product(increasing_indices(n, p), increasing_indices(n, q)))


@lru_cache(maxsize=None)
def real_expansion(n: int, bidegree: tuple[int, int]) -> tuple[tuple[int, int, complex], ...]:
    """Nonzero entries (r, k, e) of the expansion of the complex basis in
    the real one: dz_I wedge dzbar_J at coefficient position k equals the
    sum of e dx_R over the real degree-(p+q) multiindices R at position r.

    This is the one definition of the complex structure: interleaved
    coordinates z_j = x_{2j-1} + i x_{2j}.  The expanded basis forms are
    orthogonal with squared norm 2^(p+q).
    """
    pos = index_positions(2 * n, sum(bidegree))
    # dz_j = dx_{2j-1} + i dx_{2j}, and dzbar_j is its conjugate
    dz = {j: ((2 * j - 1, 1), (2 * j, 1j)) for j in range(1, n + 1)}
    entries = {}
    for k, (I, J) in enumerate(complex_layout(n, bidegree)):
        factors = [dz[j] for j in I] + [[(a, e.conjugate()) for a, e in dz[j]] for j in J]
        for picks in itertools.product(*factors):
            signed = sort_signature([a for a, _ in picks])
            if signed.sign:
                key = (pos[signed.index], k)
                entries[key] = entries.get(key, 0) + signed.sign * math.prod(e for _, e in picks)
    return tuple((r, k, complex(e)) for (r, k), e in sorted(entries.items()) if e)


@lru_cache(maxsize=None)
def expansion_matrix(n: int, bidegree: tuple[int, int]) -> np.ndarray:
    """real_expansion as a read-only matrix E: E c expands the (p,q) form
    with coefficients c, and E^H g / 2^(p+q) is the (p,q) part of g."""
    E = np.zeros((num_indices(2 * n, sum(bidegree)), n_complex_coeffs(n, bidegree)), complex)
    for r, k, e in real_expansion(n, bidegree):
        E[r, k] = e
    E.flags.writeable = False
    return E


def wirtinger_frame(n: int) -> np.ndarray:
    """W of shape (n, 2n) with d/dz_j = sum_a W[j, a] d/dx_a; d/dzbar_j
    takes conj(W).  The frame dual to the dz_j: the adjoint of their
    expansion divided by their squared norm 2."""
    return expansion_matrix(n, (1, 0)).conj().T / 2


def n_complex_coeffs(n: int, bidegree: tuple[int, int]) -> int:
    return len(complex_layout(n, tuple(bidegree)))


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
    """Complex (p,q)-form over C^n, n = grid.dim / 2, in the coordinates
    real_expansion defines."""

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


def _check_same(f, g):
    """Raise unless f and g are forms of one type and degree on one grid:
    the same object, or grids built alike (domain, h, margin and shape),
    whose masks are then the same."""
    a, b = f.grid, g.grid
    if a is not b and (a.domain, a.h, a.margin, a.shape) != (b.domain, b.h, b.margin, b.shape):
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


def weighted_sum(density: np.ndarray, weights: np.ndarray) -> float:
    """Quadrature of a nonnegative density: the real part of the sum of
    density * weights, the weights holding exp(-phi) and the cell or
    surface measure.  A density that is nonzero but sums to 0 raises
    instead of passing a check vacuously: exp(-phi) underflows there."""
    total = float(np.sum(density * weights).real)
    if total == 0.0 and np.any(density):
        raise ValidationError(
            "weighted norm underflows to 0 for a nonzero density; "
            "exp(-phi) vanishes there in double precision")
    return total


def compact_norm2(grid: Grid, values: np.ndarray, weight: Weight, mask: np.ndarray) -> float:
    """Squared weighted norm of coefficients given on the mask's nodes (the
    layout of grid.compact): the sum of |values|^2 exp(-phi) h^N."""
    return weighted_sum(np.einsum("kn,kn->n", values, values.conj()),
                        grid.weight_values(weight, mask) * grid.cell_volume)


def norm2(f, weight: Weight, mask: np.ndarray | None = None) -> float:
    """Squared weighted norm over G (always real), evaluated at the mask's
    nodes only."""
    mask = f.grid.interior if mask is None else mask
    return compact_norm2(f.grid, f.grid.compact(f.coeffs, mask), weight, mask)


def weighted_inner(f, g, weight: Weight, mask: np.ndarray | None = None):
    """Weighted inner product over G: midpoint quadrature of the pointwise
    product against exp(-phi), evaluated at the mask's nodes only.  Real
    pairs give a float, complex pairs a complex number.  For g is f it is
    norm2; the inner product of two different forms may be 0, so it is
    not held to norm2's underflow rule."""
    _check_same(f, g)
    if g is f:
        total = norm2(f, weight, mask)
    else:
        grid = f.grid
        mask = grid.interior if mask is None else mask
        w = grid.weight_values(weight, mask) * grid.cell_volume
        total = np.sum(np.einsum("kn,kn->n", grid.compact(f.coeffs, mask),
                                 grid.compact(g.coeffs, mask).conj()) * w)
    return float(total) if isinstance(f, RealForm) else complex(total)


def to_csv(form, path) -> None:
    """Flat snapshot: node index (C-order over the box), coefficient
    position (lexicographic layout), value (re/im columns when complex).
    Values are written by repr, so they read back exactly; lines end in
    CRLF, as the csv module writes them.  The lines go out CSV_CHUNK at a
    time, so the text of a large form is never held whole."""
    complex_form = isinstance(form, ComplexForm)
    flat = form.coeffs.reshape(form.coeffs.shape[0], form.grid.interior.size)
    if not complex_form:
        flat = np.asarray(flat, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("node,coeff,value,value_im\r\n" if complex_form else "node,coeff,value\r\n")
        for k, row in enumerate(flat):
            for start in range(0, row.size, CSV_CHUNK):
                part = row[start:start + CSV_CHUNK]
                nodes = range(start, start + part.size)
                if complex_form:
                    lines = [f"{i},{k},{re!r},{im!r}\r\n" for i, re, im
                             in zip(nodes, part.real.tolist(), part.imag.tolist())]
                else:
                    lines = [f"{i},{k},{value!r}\r\n" for i, value in zip(nodes, part.tolist())]
                fh.write("".join(lines))


def from_csv(grid: Grid, degree_or_bidegree, path):
    """Rebuild a form written by to_csv on this grid.  Raises
    ValidationError unless the node and coeff columns are exactly the
    layout to_csv writes for this grid and form type."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise ValidationError(f"{path}: form table without a header line")
    complex_form = "value_im" in header
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
