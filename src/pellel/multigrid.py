"""Multigrid preconditioner for the normal operator of a one-component
first-order equation.

A masked first-order map with one equation component,
A u = sum_t s_t D_{a_t} u_{i_t}, has the normal operator
K = A W_s^{-1} A^H on the equation mask.  This module approximates the
inverse of its axis-diagonal part

    S = sum_a c_a D_a W_s^{-1} D_a^T,  c_a = sum of |s_t|^2 over the terms on axis a.

A centred difference squared is a stride-2 stencil, so S couples each
node only with nodes of its own parity class (i_1 mod 2, ..., i_N mod 2).
On each of the 2^N classes S is a (2N+1)-point Laplacian at spacing 2h,
with conductance c_a / (4 h^2 w_s) at the midpoint of each edge and a
Dirichlet condition at the nodes outside the mask.  The top-degree d has
K = S exactly; dbar in C^1 adds weight-dependent cross terms.  Where the
mask meets a box face the box stencil is one-sided, and S is only an
approximation of K there too.

The classes are stacked along the leading axis of one array of shape
(2^N, m_1, ..., m_N), so every operation acts on all classes at once and
no code branches on N.  A coarse node aggregates 2^N children: P copies
its value to them, R = P^T / 2^N averages, and the coarse operator is
COARSE_SCALE times the Galerkin product R S P.  Constant interpolation
doubles the energy of a smooth error, so the Galerkin product is about
twice the rediscretized Laplacian at twice the spacing.  The V(1,1)
cycle smooths by red-black Gauss-Seidel, red then black before the
coarse correction and black then red after it, and solves the coarsest
level exactly.  As an operator it is therefore symmetric and positive
definite, whatever the coarse scale: a valid preconditioner for
conjugate gradients.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

COARSEST_NODES = 64  # a level with at most this many nodes per class is solved exactly
COARSE_SCALE = 0.5  # coarse operator = COARSE_SCALE * R S P


class _Level:
    """One level of the hierarchy.

    Its arrays have the logical shape (2^N, m_1, ..., m_N), m_a even.
    Their flat layout has one more node on every spatial axis but the
    first, which makes the strides of the spatial axes odd: a node's flat
    index f is then even exactly when its red-black colour (the parity of
    k_1 + ... + k_N) is red.  Each array is stored split by colour: red
    node f at base[0] + f // 2 and black node f at base[1] + f // 2 of one
    buffer, each half in a zero margin wider than the largest stride.  One
    colour, its neighbours along any axis, and the children of the next
    level's nodes are then contiguous views, and a half-sweep touches only
    the nodes it updates.  Nodes off the mask have diag 1 and no edges, so
    they stay 0.  The work buffers t and w hold one colour each, in the
    order of the red half; they are shared by all levels.
    """

    def __init__(self, logical: tuple[int, ...], t_buf, w_buf):
        shape = logical[:2] + tuple(m + 1 for m in logical[2:])
        self.logical, self.shape = logical, shape
        size = math.prod(shape)
        half = size // 2
        self.strides = [math.prod(shape[ax + 1:]) for ax in range(1, len(shape))]
        margin = self.strides[0] + 1
        self.base = np.array([margin, half + 2 * margin])
        self.inside = tuple(slice(0, m) for m in logical)

        def stored(fill):
            buf = np.zeros(2 * half + 3 * margin)
            for b in self.base:
                buf[b:b + half] = fill
            return buf

        def view(buf, parity, offset=0):
            start = self.base[parity] + offset
            return buf[start:start + half]

        self.x_buf, self.b_buf, self.d_buf = stored(0.0), stored(0.0), stored(1.0)
        self.e_bufs = [stored(0.0) for _ in self.strides]
        # per colour: x, b, diag, and (edge, neighbour) views, up then down
        # each axis; the neighbours of flat index f at f +- s have the
        # other colour
        self.colours = []
        for parity in (0, 1):
            pairs = []
            for e_buf, s in zip(self.e_bufs, self.strides):
                up, down = (s - 1) // 2 + parity, (s + 1) // 2 - parity
                pairs.append((view(e_buf, parity), view(self.x_buf, 1 - parity, up)))
                pairs.append((view(e_buf, 1 - parity, -down), view(self.x_buf, 1 - parity, -down)))
            self.colours.append((view(self.x_buf, parity), view(self.b_buf, parity),
                                 view(self.d_buf, parity), pairs))
        self.t = t_buf[:half]
        self.w = w_buf[:half]
        # the next level's nodes K and the offsets o of their children; the
        # red children's residuals are views of t
        self.coarse_inside = (slice(None),) + tuple(slice(0, m // 2) for m in logical[1:])
        self.offsets = list(itertools.product((0, 1), repeat=len(logical) - 1))
        self.x_children = [self.child(self.x_buf, o) for o in self.offsets]
        self.red_children = [self.child(t_buf, o, red_only=True) for o in self.offsets
                             if sum(o) % 2 == 0]
        self.inverse = None

    def child(self, buf, offset, red_only=False):
        """The child at this offset of each next-level node K, as a view in
        the shape of K of a stored array, or with red_only of a buffer that
        holds the red half alone.  With a colour half shaped
        (2^N, m_1 / 2, n_2, ..., n_N), that child sits at
        K + (sum_a o_a strides_a) // 2 in flat order."""
        shift = sum(o * s for o, s in zip(offset, self.strides))
        half = math.prod(self.shape) // 2
        start = shift // 2 + (0 if red_only else self.base[shift % 2])
        halved = self.shape[:1] + (self.shape[1] // 2,) + self.shape[2:]
        return buf[start:start + half].reshape(halved)[self.coarse_inside]

    def split(self, flat):
        """Buffer position of the nodes with these flat indices."""
        return self.base[flat % 2] + flat // 2

    def logical_index(self) -> np.ndarray:
        """Buffer position of every node, in the logical shape."""
        return self.split(np.arange(math.prod(self.shape)).reshape(self.shape)[self.inside])

    def coarsened(self, active, t_buf, w_buf):
        """The next level, with the coefficients of COARSE_SCALE * R S P,
        and its mask: a coarse node is on it when any of its children is."""
        coarse = tuple(m // 2 for m in self.logical[1:])
        low = _Level(self.logical[:1] + tuple(m + m % 2 for m in coarse), t_buf, w_buf)
        self.coarse_index = low.logical_index()[self.coarse_inside]
        self.coarse_w = self.w[:self.coarse_index.size].reshape(self.coarse_index.shape)
        c_active = np.zeros(self.coarse_index.shape, dtype=bool)
        c_diag = np.zeros(self.coarse_index.shape)
        c_edges = [np.zeros(self.coarse_index.shape) for _ in self.e_bufs]
        for offset in self.offsets:
            on = active[(slice(None),) + tuple(slice(o, m, 2) for o, m in zip(offset, self.logical[1:]))]
            c_active |= on
            c_diag += np.where(on, self.child(self.d_buf, offset), 0.0)
            for o, e_buf, c_e in zip(offset, self.e_bufs, c_edges):
                # a child at an even position along the axis is joined to its
                # sibling inside the aggregate, one at an odd position to the
                # next aggregate
                if o:
                    c_e += self.child(e_buf, offset)
                else:
                    c_diag -= 2.0 * self.child(e_buf, offset)
        scale = COARSE_SCALE / len(self.offsets)
        for e_buf, c_e in zip(low.e_bufs, c_edges):
            e_buf[self.coarse_index] = scale * c_e
        low.d_buf[self.coarse_index] = np.where(c_active, scale * c_diag, 1.0)
        low_active = np.zeros(low.logical, dtype=bool)
        low_active[self.coarse_inside] = c_active
        return low, low_active

    def set_inverse(self):
        """Make this the coarsest level: a dense inverse of its operator on
        each class, where the nodes off the mask have identity rows."""
        self.index = self.logical_index()
        diag = self.d_buf[self.index]
        n_class, per_class = diag.shape[0], diag[0].size
        mat = np.zeros((n_class, per_class, per_class))
        node = np.arange(per_class)
        mat[:, node, node] = diag.reshape(n_class, per_class)
        for ax, e_buf in enumerate(self.e_bufs):
            stride = math.prod(diag.shape[ax + 2:])
            e = e_buf[self.index].reshape(n_class, per_class)[:, :per_class - stride]
            mat[:, node[:-stride], node[stride:]] = -e
            mat[:, node[stride:], node[:-stride]] = -e
        inv = np.linalg.inv(mat)
        self.inverse = 0.5 * (inv + inv.transpose(0, 2, 1))


def _set_finest(top: _Level, eq_mask, dof_mask, w_s, h, axis_scale) -> np.ndarray:
    """Write S into the finest level; returns the flat index in it of
    each equation node, in C order of the mask."""
    dim = eq_mask.ndim
    # the equation nodes as flat indices of the box with a border of 2,
    # in which x +- h e_a and x + 2h e_a are in range for every node
    padded = tuple(n + 4 for n in eq_mask.shape)
    eq = np.zeros(padded, dtype=bool)
    eq[(slice(2, -2),) * dim] = eq_mask
    nodes = np.flatnonzero(eq)
    # where each node sits: its class (i_a mod 2 on each axis) and its
    # position i_a // 2 within the class
    class_size = math.prod(top.shape[1:])
    pos = np.zeros(nodes.size, dtype=np.intp)
    for ax, (i, s) in enumerate(zip(np.unravel_index(nodes, padded), top.strides)):
        i -= 2
        pos += (i & 1) * (2 ** (dim - 1 - ax) * class_size) + (i >> 1) * s
    winv = np.zeros(padded)
    winv[(slice(2, -2),) * dim][dof_mask] = 1.0 / w_s
    winv = winv.ravel()
    diag = np.zeros(nodes.size)
    at = top.split(pos)
    for ax, edge in enumerate(top.e_bufs):
        s = math.prod(padded[ax + 1:])
        k = axis_scale[ax] / (4.0 * h * h)
        up = k * winv[nodes + s]
        diag += up
        diag += k * winv[nodes - s]
        # the edge from x to x + 2h e_a joins two equation nodes
        up *= eq.ravel()[nodes + 2 * s]
        edge[at] = up
    top.d_buf[at] = diag
    return pos


class ParityMultigrid:
    """One V(1,1) cycle for S (see the module docstring) on compact vectors
    over the equation mask.

    eq_mask and dof_mask are box masks with dof_mask containing the
    one-node dilation of eq_mask; w_s holds the source weights at the
    dof_mask nodes in C order, and axis_scale[a] is c_a.  Calling the
    object on a real or complex vector over eq_mask returns the cycle
    applied to it; real and imaginary parts run through the same
    hierarchy.  The buffers are reused, so an object serves one thread at
    a time.
    """

    def __init__(self, eq_mask: np.ndarray, dof_mask: np.ndarray, w_s: np.ndarray,
                 h: float, axis_scale):
        dim = eq_mask.ndim
        logical = (2 ** dim,) + tuple(-(-n // 4) * 2 for n in eq_mask.shape)
        # t holds one colour, plus room for the shifted views of red children
        size = math.prod(logical[:2]) * math.prod(m + 1 for m in logical[2:])
        t_buf = np.empty(size // 2 + size // logical[0] // logical[1])
        w_buf = np.empty(size // 2)
        top = _Level(logical, t_buf, w_buf)
        flat = _set_finest(top, eq_mask, dof_mask, w_s, h, axis_scale)
        active = np.zeros(top.shape, dtype=bool)
        active.reshape(-1)[flat] = True
        active = active[top.inside]
        self.pos = top.split(flat)

        self.levels = [top]
        while active[0].size > COARSEST_NODES and max(active.shape[1:]) > 2:
            low, active = self.levels[-1].coarsened(active, t_buf, w_buf)
            self.levels.append(low)
        self.levels[-1].set_inverse()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(r):
            out = np.empty(r.shape, dtype=complex)
            self._cycle_from(r.real, out.real)
            self._cycle_from(r.imag, out.imag)
            return out
        out = np.empty(r.shape)
        self._cycle_from(r, out)
        return out

    def _cycle_from(self, r, out) -> None:
        top = self.levels[0]
        top.b_buf[self.pos] = r
        self._cycle(0)
        np.take(top.x_buf, self.pos, out=out, mode="clip")

    def _cycle(self, depth: int) -> None:
        lev = self.levels[depth]
        if lev.inverse is not None:
            b = lev.b_buf[lev.index]
            x = np.matmul(lev.inverse, b.reshape(b.shape[0], -1, 1))
            lev.x_buf[lev.index] = x.reshape(b.shape)
            return
        low = self.levels[depth + 1]
        red, black = lev.colours
        x_red, b_red, d_red, _ = red
        np.divide(b_red, d_red, out=x_red)  # red half-sweep from x = 0
        self._half_sweep(lev, black)
        # the residual, in t; it vanishes on black nodes after a black half-sweep
        self._accumulate(lev, red, lev.t)
        np.multiply(d_red, x_red, out=lev.w)
        lev.t -= lev.w
        # restrict: each coarse node averages its children's residuals
        coarse = lev.coarse_w
        np.copyto(coarse, lev.red_children[0])
        for child in lev.red_children[1:]:
            coarse += child
        coarse *= 1.0 / len(lev.x_children)
        low.b_buf[lev.coarse_index] = coarse
        self._cycle(depth + 1)
        # prolong: each child takes its coarse node's value
        np.take(low.x_buf, lev.coarse_index, out=coarse, mode="clip")
        for child in lev.x_children:
            child += coarse
        self._half_sweep(lev, black)
        self._half_sweep(lev, red)

    @staticmethod
    def _accumulate(lev, colour, out) -> None:
        """out = b + the couplings of the colour's nodes to their neighbours."""
        _, b, _, pairs = colour
        np.copyto(out, b)
        for e, x in pairs:
            np.multiply(e, x, out=lev.w)
            out += lev.w

    def _half_sweep(self, lev, colour) -> None:
        x, _, diag, _ = colour
        self._accumulate(lev, colour, lev.t)
        np.divide(lev.t, diag, out=x)
