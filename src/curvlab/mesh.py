"""Weighted one-dimensional calculus on orbit spaces.

When a compact group acts isometrically with one-dimensional quotient, every
invariant computation collapses to functions of the arc-length coordinate r
on a circle or an interval, integrated against the orbit-volume weight w(r).
This module owns that calculus: the quadrature, weighted Lp norms, first and
second derivatives, and the divergence-form Laplacian (1/w)(w u')'.

Every other module integrates with the single quadrature defined here, so
that summation-by-parts and adjointness checks are statements about matrices
rather than about mismatched quadrature rules.

Each stencil is defined once, by its integer coefficients (at most five per
row), and depends on the topology and N only.  A private, bounded cache builds
the four stencils -- diff1 = 2h D1, diff2 = h^2 D2, the face differences grad
and their transpose div -- once per (topology, N) with numpy, read-only, and
every mesh of that size shares them.  Every stencil method applies one of
them as a fixed-width gather-and-add, each row's terms added in column order
from +0.0 exactly as a CSR row sum does, and scales the result afterwards:
`derivative` is diff1 u / 2h, and `laplacian` divides the face-weighted
differences grad u by h, takes their divergence and divides by the cell
volumes.  Differencing first keeps the exact zero on constants: the
differences of a constant are exactly 0.0, while a matrix scaled by 1/h and
the weights leaves rounding of order 1e-13 there, which raises the residual
floor of the Newton solvers.  Curvature evaluation therefore needs numpy
only.

The scaled matrices (first and second derivative, stiffness, Laplacian) are
`scipy.sparse` CSR arrays.  Each mesh builds each of them from the shared
stencils on its first request, next to the union pattern of I, D1 and D2
(`StencilPattern`); every caller shares them, read-only.  A mesh's first
matrix is where `scipy.sparse` is imported.

Meshes are uniform.  On interval topology the weight may vanish at the two
endpoint nodes only (singular orbits); the Laplacian closes the stencil there
with a zero-flux (Neumann) condition, which is the correct boundary behavior
for smooth invariant functions across a singular orbit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import _frozen

if TYPE_CHECKING:
    import scipy.sparse as sp

CIRCLE = "circle"
INTERVAL = "interval"

# Endpoint weights below this fraction of the max are snapped to exact zero,
# so that analytically vanishing orbit volumes (e.g. sin(pi)) are honored.
_ENDPOINT_SNAP = 1e-12


def _as_values(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"discrete function has length {u.shape}, mesh has {n} nodes")
    return u


# Union pattern of I, D1 and D2 in sorted CSR order: entry e sits at
# (row[e], col[e]) and holds the D1 and D2 values there (0 where absent);
# diagonal[j] is the entry at (j, j).
StencilPattern = namedtuple("StencilPattern", "indptr row col d1 d2 diagonal")


# A stencil as a fixed-width row table: term t of row i is
# coefs[t, i] * u[cols[t, i]], each row's terms in column order.  Where rows
# have fewer terms than the widest (``padded``), the short rows are filled up
# with coefficient 0 at column ``shape[1]``, which `_apply` points at an
# appended 0.0.
_Stencil = namedtuple("_Stencil", "cols coefs shape padded")
_Stencils = namedtuple("_Stencils", "diff1 diff2 grad div")


def _pack(entries, shape) -> _Stencil:
    """The read-only stencil table of the operator of ``shape`` whose nonzeros
    are the (rows, cols, coefs) triples in ``entries``; each triple broadcasts."""
    row, col, coef = (np.concatenate(parts) for parts in
                      zip(*(np.broadcast_arrays(*entry) for entry in entries)))
    order = np.lexsort((col, row))
    row, col, coef = row[order], col[order], coef[order]
    counts = np.bincount(row, minlength=shape[0])
    slot = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    cols = np.full((counts.max(), shape[0]), shape[1])
    coefs = np.zeros(cols.shape)
    cols[slot, row], coefs[slot, row] = col, coef
    cols.setflags(write=False)
    coefs.setflags(write=False)
    return _Stencil(cols, coefs, shape, bool(np.any(counts < len(cols))))


@lru_cache(maxsize=32)
def _stencils(topology: str, n: int) -> _Stencils:
    """diff1 = 2h D1, diff2 = h^2 D2, the face differences grad (u_{j+1} - u_j)
    and div = grad^T on ``n`` nodes, built once per (topology, n)."""
    j = np.arange(n)
    rows, faces = (j, j) if topology == CIRCLE else (j[1:-1], j[:-1])

    def band(at, *terms):
        """Entry (i, i + k mod n) holds c, for each row i in ``at`` and each (k, c)."""
        return [(at, (at + k) % n, c) for k, c in terms]

    diff1 = band(rows, (-1, -1.0), (1, 1.0))
    diff2 = band(rows, (-1, 1.0), (0, -2.0), (1, 1.0))
    if topology == INTERVAL:
        # second-order one-sided closures; the last row mirrors the first,
        # with the sign of diff1 flipped
        k = np.arange(4)
        diff1 += [(0, k[:3], [-3.0, 4.0, -1.0]), (n - 1, n - 1 - k[:3], [3.0, -4.0, 1.0])]
        diff2 += [(row, col, [2.0, -5.0, 4.0, -1.0]) for row, col in ((0, k), (n - 1, n - 1 - k))]
    grad = band(faces, (0, -1.0), (1, 1.0))
    return _Stencils(_pack(diff1, (n, n)), _pack(diff2, (n, n)), _pack(grad, (len(faces), n)),
                    _pack([(col, row, c) for row, col, c in grad], (n, len(faces))))


def _apply(stencil: _Stencil, u: np.ndarray) -> np.ndarray:
    """The stencil times ``u``: each row summed from +0.0 in column order,
    which gives the bits of a CSR matrix-vector product."""
    if stencil.padded:
        u = np.append(u, 0.0)
    return np.add.reduce(stencil.coefs * u[stencil.cols], axis=0, initial=0.0)


def _csr(stencil: _Stencil, divisor: float = 1.0) -> sp.csr_array:
    """The stencil divided by ``divisor``, as a CSR array without its padding."""
    import scipy.sparse as sp

    real = stencil.cols.T < stencil.shape[1]
    indptr = np.concatenate(([0], np.cumsum(np.sum(real, axis=1)))).astype(np.int32)
    data, indices = stencil.coefs.T[real] / divisor, stencil.cols.T[real].astype(np.int32)
    return sp.csr_array((data, indices, indptr), shape=stencil.shape)


def _read_only(matrix) -> sp.csr_array:
    """``matrix`` as a read-only CSR array with sorted indices."""
    import scipy.sparse as sp

    matrix = sp.csr_array(matrix)
    matrix.sort_indices()
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class QuotientMesh:
    """Uniform discretization of a 1-D orbit space with orbit-volume weights.

    Attributes
    ----------
    topology : "circle" or "interval"
    nodes    : node coordinates, arc-length units; circle meshes omit the
               duplicate endpoint
    h        : uniform spacing
    weights  : orbit volume per node; finite and positive, except possibly
               zero at the two endpoints of an interval
    length   : total coordinate length L
    """

    topology: str
    nodes: np.ndarray
    h: float
    weights: np.ndarray
    length: float

    def __post_init__(self):
        n = _frozen.store(self, "nodes").shape[0]
        w = _frozen.store(self, "weights")
        if n < 16:
            raise ValueError(f"need at least 16 nodes, got {n}")
        if w.shape != (n,):
            raise ValueError("weights/nodes length mismatch")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.topology == CIRCLE:
            if np.any(w <= 0):
                raise ValueError("circle meshes require strictly positive weights")
        elif self.topology == INTERVAL:
            if np.any(w[1:-1] <= 0):
                raise ValueError("interior weights must be strictly positive")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
        else:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.total_volume() <= 0:
            raise ValueError("total volume must be positive")

    # -- quadrature ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def mass_vector(self) -> np.ndarray:
        """Quadrature masses m_j with integrate(u) = sum(u*m).

        Trapezoid rule: interval endpoints carry half weight; on the circle
        the rule is the plain (exact for trigonometric polynomials) sum.
        """
        m = self.weights * self.h
        if self.topology == INTERVAL:
            m = m.copy()
            m[0] *= 0.5
            m[-1] *= 0.5
        return m

    def total_volume(self) -> float:
        return float(np.sum(self.mass_vector()))

    def integrate(self, u) -> float:
        u = _as_values(u, self.node_count)
        return float(np.dot(u, self.mass_vector()))

    def inner(self, u, v) -> float:
        """Weighted L2 pairing <u, v>_w."""
        u = _as_values(u, self.node_count)
        v = _as_values(v, self.node_count)
        return float(np.dot(u * v, self.mass_vector()))

    def lp_norm(self, u, p: float) -> float:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        u = _as_values(u, self.node_count)
        return float(self.integrate(np.abs(u) ** p) ** (1.0 / p))

    # -- differentiation -----------------------------------------------

    def derivative(self, u) -> np.ndarray:
        """Second-order first derivative; one-sided at interval endpoints."""
        return _apply(self._stencils.diff1, _as_values(u, self.node_count)) / (2.0 * self.h)

    def second_derivative(self, u) -> np.ndarray:
        """Compact second-order second derivative; one-sided at endpoints."""
        return _apply(self._stencils.diff2, _as_values(u, self.node_count)) / (self.h * self.h)

    @cached_property
    def _face_weights(self) -> np.ndarray:
        """Weight at face j+1/2 (between node j and j+1); circular on circles."""
        w = self.weights
        wf = 0.5 * (w + np.roll(w, -1)) if self.topology == CIRCLE else 0.5 * (w[:-1] + w[1:])
        wf.setflags(write=False)
        return wf

    @cached_property
    def _cell_volumes(self) -> np.ndarray:
        """Laplacian cell volumes: the quadrature masses, except that the half
        cell at a vanishing interval endpoint weight uses the face average."""
        vol = self.mass_vector()
        if self.topology == INTERVAL:
            ends = [0, -1]
            vol[ends] = np.where(self.weights[ends] > 0, vol[ends],
                                 0.25 * self.h * self._face_weights[ends])
        vol.setflags(write=False)
        return vol

    def laplacian(self, u) -> np.ndarray:
        """Divergence-form Laplacian (1/w)(w u')' with zero-flux closure.

        For unit weight on a circle this is the standard periodic second
        difference.  At interval endpoints the boundary flux is zero; where
        the endpoint weight itself vanishes (a singular orbit) the half-cell
        volume uses the trapezoid face average, which reproduces the limit
        (1+k) u'' of u'' + k u'/r for linearly vanishing weight.
        """
        stencils = self._stencils
        flux = self._face_weights * _apply(stencils.grad, _as_values(u, self.node_count)) / self.h
        return -_apply(stencils.div, flux) / self._cell_volumes

    # -- bilinear forms and matrices -------------------------------------

    def dirichlet_form(self, u, v) -> float:
        """Stiffness pairing sum_faces w_face (du)(dv)/h.

        This is the exact quadratic form of -laplacian against the mesh
        quadrature, i.e. <-lap(u), v>_w == dirichlet_form(u, v) up to the
        degenerate endpoint masses of an interval.
        """
        grad = self._stencils.grad
        du = _apply(grad, _as_values(u, self.node_count))
        dv = _apply(grad, _as_values(v, self.node_count))
        return float(np.sum(self._face_weights * du * dv) / self.h)

    @cached_property
    def _stencils(self) -> _Stencils:
        """The integer stencils shared by every mesh of this topology and N."""
        return _stencils(self.topology, self.node_count)

    @cached_property
    def _d1(self) -> sp.csr_array:
        return _read_only(_csr(self._stencils.diff1, 2.0 * self.h))

    @cached_property
    def _d2(self) -> sp.csr_array:
        return _read_only(_csr(self._stencils.diff2, self.h * self.h))

    @cached_property
    def _stiffness(self) -> sp.csr_array:
        import scipy.sparse as sp

        # S = grad^T diag(w_face) grad / h
        grad = _csr(self._stencils.grad)
        return _read_only(grad.T @ sp.diags_array(self._face_weights) @ grad / self.h)

    @cached_property
    def _laplacian(self) -> sp.csr_array:
        import scipy.sparse as sp

        return _read_only(-sp.diags_array(1.0 / self._cell_volumes) @ self._stiffness)

    def d1_matrix(self) -> sp.csr_array:
        """Matrix of `derivative`, an (N, N) CSR array."""
        return self._d1

    def d2_matrix(self) -> sp.csr_array:
        """Matrix of `second_derivative`, an (N, N) CSR array."""
        return self._d2

    def stiffness_matrix(self) -> sp.csr_array:
        """Stiffness S, an (N, N) CSR array with u.S.v == dirichlet_form(u, v)."""
        return self._stiffness

    def laplacian_matrix(self) -> sp.csr_array:
        """Matrix of `laplacian`, an (N, N) CSR array: L = -diag(1/vol) S.

        ``vol`` are the Laplacian's cell volumes: the quadrature masses, with
        the half-cell rule at vanishing interval endpoints.
        """
        return self._laplacian

    @cached_property
    def stencil_pattern(self) -> StencilPattern:
        """The `StencilPattern` of this mesh, built once from `d1_matrix` and
        `d2_matrix`; read-only.  Interval closure rows hold 4 entries, others 3."""
        n, ops = self.node_count, (self.d1_matrix(), self.d2_matrix())
        # row-major entry keys, sorted within each canonical CSR array
        keys = [np.repeat(n * np.arange(n), np.diff(op.indptr)) + op.indices for op in ops]
        diagonal = (n + 1) * np.arange(n)
        union = np.unique(np.concatenate([diagonal, *keys]))
        values = np.zeros((2, len(union)))
        for vals, op, key in zip(values, ops, keys):
            vals[np.searchsorted(union, key)] = op.data
        row, col = np.divmod(union, n)
        pattern = StencilPattern(np.searchsorted(row, np.arange(n + 1)), row, col, *values,
                                 np.searchsorted(union, diagonal))
        for arr in (*pattern, values):
            arr.setflags(write=False)
        return pattern


def sample_profile(profile, nodes: np.ndarray) -> np.ndarray:
    """A fresh array of ``profile`` at ``nodes``: per-node values, or a callable
    r -> w(r) called once on the node array, whose scalar result is broadcast
    to every node.  Any other shape is a ValueError.  Floating-point warnings
    are silenced: the mesh and the warped metric reject non-finite samples."""
    with np.errstate(all="ignore"):
        values = np.array(profile(nodes) if callable(profile) else profile, dtype=float)
    if callable(profile) and values.ndim == 0:
        values = np.full(nodes.shape, values)
    if values.shape != nodes.shape:
        raise ValueError(f"profile has shape {values.shape}, the mesh has {len(nodes)} nodes")
    return values


def uniform_nodes(topology: str, n: int, length: float):
    """Spacing h and the ``n`` nodes of a uniform mesh of ``length``; circle
    meshes omit the duplicate endpoint.  The length must be finite and positive."""
    if n < 16:
        raise ValueError(f"need at least 16 nodes, got {n}")
    if not (np.isfinite(length) and length > 0):
        raise ValueError("length must be finite and positive")
    if topology == CIRCLE:
        h = length / n
        nodes = h * np.arange(n)
    elif topology == INTERVAL:
        h = length / (n - 1)
        nodes = h * np.arange(n)
        nodes[-1] = length
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return h, nodes


def build_mesh(topology: str, n: int, length: float, weight) -> QuotientMesh:
    """Build a uniform mesh (`uniform_nodes`) with weights sampled from ``weight``.

    ``weight`` is sampled by `sample_profile`.  Endpoint weights of interval
    meshes that vanish analytically are snapped to exact zero when the sample
    falls below 1e-12 of the maximum.
    """
    h, nodes = uniform_nodes(topology, n, length)
    w = sample_profile(weight, nodes)
    if topology == INTERVAL:
        snap = _ENDPOINT_SNAP * float(np.max(np.abs(w)) or 1.0)
        for j in (0, -1):
            if abs(w[j]) < snap:
                w[j] = 0.0
    return QuotientMesh(topology=topology, nodes=nodes, h=h, weights=w, length=float(length))


def circle_mesh(n: int, length: float, weight=1.0) -> QuotientMesh:
    """Convenience constructor; a scalar weight means a constant weight."""
    return build_mesh(CIRCLE, n, length, (lambda r: weight) if np.isscalar(weight) else weight)
