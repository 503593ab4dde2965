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
twice the rediscretized Laplacian at twice the spacing.  The V-cycle
smooths by red-black Gauss-Seidel.  The finest level runs one sweep on
each side of the coarse correction, red then black before it and black
then red after it.  Every coarser level runs COARSE_SWEEPS sweeps on each
side, R B R B before and B R B R after: there the Galerkin operator is
the weak part of the cycle, and a level has 1 / 2^N of the nodes of the
one above it.  The coarsest level is solved exactly.  Each level's
smoothing is a palindrome around its correction, so the cycle is
symmetric and positive definite as an operator, whatever the coarse
scale: a valid preconditioner for conjugate gradients.

S depends on the masks, w_s, h and the axis scales c_a only, and scaling
c_a by t scales S by t and the cycle by 1 / t, exactly when t is a power
of two.  The 2-D maps of a pipeline call (the top-degree d, c_a = 1, and
dbar in C^1, c_a = 1/4) therefore share one hierarchy built for c_a / max
c_a (pellel.minnorm).

A complex residual is two real ones, its real and imaginary parts, and
they run through the one real hierarchy in turn, a cycle each.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

COARSEST_NODES = 64  # a level with at most this many nodes per class is solved exactly
COARSE_SCALE = 0.5  # coarse operator = COARSE_SCALE * R S P
COARSE_SWEEPS = 2  # red-black sweeps on each side of the correction below the finest level
FINEST_SLABS = 8  # the finest level is written in up to this many slabs along the first axis
SLAB_NODES = 8192  # and each slab spans at least this many box nodes


class _Views:
    """The views through which a cycle works on one level: one colour of each
    array spans all classes, so each numpy call serves every class.  A
    neighbour view that runs from one class into the next pairs with edges
    that are 0 there, as at the margins, since an edge joins two nodes of one
    class."""

    def __init__(self, lev: "_Level"):
        def view(buf, parity, offset=0):
            start = lev.base[parity] + offset
            return buf[start:start + lev.half]

        # per colour: x, b, diag, and (edge, neighbour) views, up then down
        # each axis; the neighbours of flat index f at f +- s have the
        # other colour
        self.colours = []
        for parity in (0, 1):
            pairs = []
            for e_buf, s in zip(lev.e_bufs, lev.strides):
                up, down = (s - 1) // 2 + parity, (s + 1) // 2 - parity
                pairs.append((view(e_buf, parity), view(lev.x_buf, 1 - parity, up)))
                pairs.append((view(e_buf, 1 - parity, -down), view(lev.x_buf, 1 - parity, -down)))
            self.colours.append((view(lev.x_buf, parity), view(lev.b_buf, parity),
                                 view(lev.d_buf, parity), pairs))
        self.t = lev.t_buf[:lev.half]
        self.w = lev.w_buf[:lev.half]
        # the children of the next level's nodes, the red children's
        # residuals in t, and the next level's nodes: their buffer
        # positions and a work array in w
        self.x_children = [lev.child(lev.x_buf, o) for o in lev.offsets]
        self.red_children = [lev.child(lev.t_buf, o, red_only=True)
                             for o in lev.offsets if sum(o) % 2 == 0]
        self.coarse_index = lev.coarse_index
        self.coarse = self.w[:lev.coarse_index.size].reshape(lev.coarse_index.shape)


class _Level:
    """One level of the hierarchy.

    Its arrays have the logical shape (2^N, m_1, ..., m_N), m_a even, where
    the leading axis holds the classes.  Their flat layout has one more node
    on every spatial axis but the first, which makes the strides of the
    spatial axes odd: a node's flat index f is then even exactly when its
    red-black colour (the parity of k_1 + ... + k_N) is red.  Each array is
    stored split by colour: red node f at base[0] + f // 2 and black node f at
    base[1] + f // 2 of one buffer, each colour in a zero margin wider than
    the largest stride.  One colour, its neighbours along any axis, and the
    children of the next level's nodes are then contiguous views, and a
    half-sweep touches only the nodes it updates.  Nodes off the mask have
    diag 1 and no edges, so they stay 0.  The work buffers t and w hold one
    colour, in the order of the red half; they are shared by all levels.
    """

    def __init__(self, logical: tuple[int, ...], t_buf, w_buf):
        shape = logical[:2] + tuple(m + 1 for m in logical[2:])
        self.logical, self.shape = logical, shape
        self.half = half = math.prod(shape) // 2
        self.strides = [math.prod(shape[ax + 1:]) for ax in range(1, len(shape))]
        margin = self.strides[0] + 1
        self.base = np.array([margin, half + 2 * margin])
        self.inside = tuple(slice(0, m) for m in logical)

        def stored(fill):
            buf = np.zeros(2 * half + 3 * margin)
            if fill:
                for b in self.base:
                    buf[b:b + half] = fill
            return buf

        self.x_buf, self.b_buf, self.d_buf = stored(0.0), stored(0.0), stored(1.0)
        self.e_bufs = [stored(0.0) for _ in self.strides]
        # the next level's nodes K and the offsets o of their children
        self.coarse_inside = (slice(None),) + tuple(slice(0, m // 2) for m in logical[1:])
        self.offsets = list(itertools.product((0, 1), repeat=len(logical) - 1))
        self.t_buf, self.w_buf = t_buf, w_buf
        self.inverse = None

    def child(self, buf, offset, red_only=False):
        """The child at this offset of each next-level node K, as a view
        of the shape of K of a stored array, or with red_only of a buffer
        that holds the red half alone.  With a colour half shaped
        (2^N, m_1 / 2, n_2, ..., n_N), that child sits at
        K + (sum_a o_a strides_a) // 2 in flat order."""
        shift = sum(o * s for o, s in zip(offset, self.strides))
        start = shift // 2 + (0 if red_only else self.base[shift % 2])
        halved = self.shape[:1] + (self.shape[1] // 2,) + self.shape[2:]
        return buf[start:start + self.half].reshape(halved)[self.coarse_inside]

    def split(self, flat):
        """Buffer position of the nodes with these flat indices."""
        return self.base[flat % 2] + flat // 2

    def logical_index(self) -> np.ndarray:
        """Buffer position of every node, in the logical shape."""
        return self.split(np.arange(math.prod(self.shape)).reshape(self.shape)[self.inside])

    def coarsened(self, active):
        """The next level, with the coefficients of COARSE_SCALE * R S P,
        and its mask: a coarse node is on it when any of its children is.
        This level's views are made here, once it knows the next one."""
        coarse = tuple(m // 2 for m in self.logical[1:])
        low = _Level(self.logical[:1] + tuple(m + m % 2 for m in coarse), self.t_buf, self.w_buf)
        self.coarse_index = low.logical_index()[self.coarse_inside]
        c_shape = self.coarse_index.shape
        c_active = np.zeros(c_shape, dtype=bool)
        c_diag = np.zeros(c_shape)
        c_edges = [np.zeros(c_shape) for _ in self.e_bufs]
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
        self.views = _Views(self)
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


def _set_finest(top: _Level, eq_mask, dof_mask, w_s, h, axis_scale):
    """Write S into the finest level.  Returns the buffer position of each
    equation node, in C order of the mask, and the level's mask in its
    logical shape.

    The nodes are taken in slabs along the first axis (FINEST_SLABS of
    them, fewer on a small box).  Each slab works on a window of the masks
    with a border of 2, in which x +- h e_a and x + 2h e_a are in range
    for every node of the slab, so on a large box its temporaries stay a
    fraction of the mask."""
    dim, rows = eq_mask.ndim, eq_mask.shape[0]
    class_size = math.prod(top.shape[1:])
    k = [s / (4.0 * h * h) for s in axis_scale]
    # where each row's dof nodes start in w_s
    dof_start = np.zeros(rows + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(dof_mask.reshape(rows, -1), axis=1), out=dof_start[1:])
    at = np.empty(np.count_nonzero(eq_mask), dtype=np.intp)
    active = np.zeros(math.prod(top.shape), dtype=bool)
    done = 0
    step = max(-(-rows // FINEST_SLABS), -(-SLAB_NODES * rows // eq_mask.size))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        # window row j holds box row r0 - 2 + j; rows outside the box stay empty
        padded = (r1 - r0 + 4,) + tuple(n + 4 for n in eq_mask.shape[1:])
        row = math.prod(padded[1:])
        lo, hi = max(r0 - 2, 0), min(r1 + 2, rows)
        inner = (slice(lo - r0 + 2, hi - r0 + 2),) + (slice(2, -2),) * (dim - 1)
        eq = np.zeros(padded, dtype=bool)
        eq[inner] = eq_mask[lo:hi]
        winv = np.zeros(padded)
        winv[inner][dof_mask[lo:hi]] = 1.0 / w_s[dof_start[lo]:dof_start[hi]]
        eq, winv = eq.ravel(), winv.ravel()
        # the slab's equation nodes as flat indices of the window, and where
        # each sits: its class (i_a mod 2 on each axis) and its position
        # i_a // 2 within the class
        nodes = np.flatnonzero(eq[2 * row:(r1 - r0 + 2) * row])
        nodes += 2 * row
        pos = np.zeros(nodes.size, dtype=np.intp)
        for ax, (i, s) in enumerate(zip(np.unravel_index(nodes, padded), top.strides)):
            i += r0 - 2 if ax == 0 else -2
            pos += (i & 1) * (2 ** (dim - 1 - ax) * class_size) + (i >> 1) * s
        active[pos] = True
        slab_at = at[done:done + pos.size]
        slab_at[:] = top.split(pos)
        done += pos.size
        diag = np.zeros(nodes.size)
        for ax, edge in enumerate(top.e_bufs):
            s = math.prod(padded[ax + 1:])
            up = k[ax] * winv[nodes + s]
            diag += up
            diag += k[ax] * winv[nodes - s]
            # the edge from x to x + 2h e_a joins two equation nodes
            up *= eq[nodes + 2 * s]
            edge[slab_at] = up
        top.d_buf[slab_at] = diag
    return at, active.reshape(top.shape)[top.inside]


class ParityMultigrid:
    """One V-cycle for S (see the module docstring) on compact vectors
    over the equation mask.

    eq_mask and dof_mask are box masks with dof_mask containing the
    one-node dilation of eq_mask; w_s holds the source weights at the
    dof_mask nodes in C order, and axis_scale[a] is c_a.  Calling the
    object on a real or complex vector over eq_mask returns the cycle
    applied to it, to the real and imaginary parts of a complex one in
    turn.  The buffers are reused, so an object serves one thread at a
    time.
    """

    def __init__(self, eq_mask: np.ndarray, dof_mask: np.ndarray, w_s: np.ndarray,
                 h: float, axis_scale):
        dim = eq_mask.ndim
        per_class = tuple(-(-n // 4) * 2 for n in eq_mask.shape)
        size = 2 ** dim * per_class[0] * math.prod(m + 1 for m in per_class[1:])
        # t holds one colour, plus room for the shifted views of red children
        t_buf = np.empty(size // 2 + size // 2 ** dim // per_class[0])
        w_buf = np.empty(size // 2)
        top = _Level((2 ** dim,) + per_class, t_buf, w_buf)
        self.pos, active = _set_finest(top, eq_mask, dof_mask, w_s, h, axis_scale)

        self.levels = [top]
        while active[0].size > COARSEST_NODES and max(active.shape[1:]) > 2:
            low, active = self.levels[-1].coarsened(active)
            self.levels.append(low)
        self.levels[-1].set_inverse()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(r):
            out = np.empty(r.shape, dtype=complex)
            parts = [(r.real, out.real), (r.imag, out.imag)]
        else:
            out = np.empty(r.shape)
            parts = [(r, out)]
        top = self.levels[0]
        for part, part_out in parts:
            top.b_buf[self.pos] = part
            self._cycle(0)
            np.take(top.x_buf, self.pos, out=part_out, mode="clip")
        return out

    def _cycle(self, depth: int) -> None:
        lev = self.levels[depth]
        if lev.inverse is not None:
            b = lev.b_buf[lev.index]
            x = np.matmul(lev.inverse, b.reshape(b.shape[:1] + (-1, 1)))
            lev.x_buf[lev.index] = x.reshape(b.shape)
            return
        low = self.levels[depth + 1]
        views = lev.views
        red, black = views.colours
        x_red, b_red, d_red, _ = red
        sweeps = 1 if depth == 0 else COARSE_SWEEPS
        np.divide(b_red, d_red, out=x_red)  # red half-sweep from x = 0
        self._half_sweep(views, black)
        for _ in range(sweeps - 1):
            self._half_sweep(views, red)
            self._half_sweep(views, black)
        # the residual, in t; it vanishes on black nodes after a black half-sweep
        self._accumulate(views, red, views.t)
        np.multiply(d_red, x_red, out=views.w)
        views.t -= views.w
        # restrict: each coarse node averages its children's residuals
        coarse = views.coarse
        np.copyto(coarse, views.red_children[0])
        for child in views.red_children[1:]:
            coarse += child
        coarse *= 1.0 / len(views.x_children)
        low.b_buf[views.coarse_index] = coarse
        self._cycle(depth + 1)
        # prolong: each child takes its coarse node's value
        np.take(low.x_buf, views.coarse_index, out=coarse, mode="clip")
        for child in views.x_children:
            child += coarse
        for _ in range(sweeps):
            self._half_sweep(views, black)
            self._half_sweep(views, red)

    @staticmethod
    def _accumulate(views, colour, out) -> None:
        """out = b + the couplings of the colour's nodes to their neighbours."""
        _, b, _, pairs = colour
        np.copyto(out, b)
        for e, x in pairs:
            np.multiply(e, x, out=views.w)
            out += views.w

    def _half_sweep(self, views, colour) -> None:
        x, _, diag, _ = colour
        self._accumulate(views, colour, views.t)
        np.divide(views.t, diag, out=x)
