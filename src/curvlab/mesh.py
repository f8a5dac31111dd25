"""Weighted one-dimensional calculus on orbit spaces.

When a compact group acts isometrically with one-dimensional quotient, every
invariant computation collapses to functions of the arc-length coordinate r
on a circle or an interval, integrated against the orbit-volume weight w(r).
This module owns that calculus: the quadrature, weighted Lp norms, first and
second derivatives, and the divergence-form Laplacian (1/w)(w u')'.

Every other module integrates with the single quadrature defined here, so
that summation-by-parts and adjointness checks are statements about matrices
rather than about mismatched quadrature rules.

Each stencil is defined once.  A mesh builds its difference operators on its
first stencil or matrix call, as `scipy.sparse` CSR arrays with integer
coefficients (at most five nonzeros per row).  That build is where
`scipy.sparse` is imported, so a mesh, its quadrature and its weighted norms
need numpy only.  Every stencil method applies one of the operators and
scales the result afterwards: `derivative` is diff1 u / 2h, and `laplacian`
divides the face-weighted differences grad u by h, takes their divergence and
divides by the cell volumes.  Differencing first keeps the exact zero on
constants: the differences of a constant are exactly 0.0, while a matrix
scaled by 1/h and the weights leaves rounding of order 1e-13 there, which
raises the residual floor of the Newton solvers.  The scaled matrices (first
and second derivative, stiffness, Laplacian) are built from the same
operators, next to the union pattern of I, D1 and D2 (`StencilPattern`);
every caller shares them, read-only.

Meshes are uniform.  On interval topology the weight may vanish at the two
endpoint nodes only (singular orbits); the Laplacian closes the stencil there
with a zero-flux (Neumann) condition, which is the correct boundary behavior
for smooth invariant functions across a singular orbit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

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


@dataclass(frozen=True)
class QuotientMesh:
    """Uniform discretization of a 1-D orbit space with orbit-volume weights.

    Attributes
    ----------
    topology : "circle" or "interval"
    nodes    : node coordinates, arc-length units; circle meshes omit the
               duplicate endpoint
    h        : uniform spacing
    weights  : orbit volume per node; positive, except possibly zero at the
               two endpoints of an interval
    length   : total coordinate length L
    """

    topology: str
    nodes: np.ndarray
    h: float
    weights: np.ndarray
    length: float

    def __post_init__(self):
        n = self.nodes.shape[0]
        if n < 16:
            raise ValueError(f"need at least 16 nodes, got {n}")
        if self.weights.shape != (n,):
            raise ValueError("weights/nodes length mismatch")
        w = self.weights
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
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

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
        return self._operators["diff1"] @ _as_values(u, self.node_count) / (2.0 * self.h)

    def second_derivative(self, u) -> np.ndarray:
        """Compact second-order second derivative; one-sided at endpoints."""
        return self._operators["diff2"] @ _as_values(u, self.node_count) / (self.h * self.h)

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
        ops = self._operators
        flux = self._face_weights * (ops["grad"] @ _as_values(u, self.node_count)) / self.h
        return -(ops["div"] @ flux) / self._cell_volumes

    # -- bilinear forms and matrices -------------------------------------

    def dirichlet_form(self, u, v) -> float:
        """Stiffness pairing sum_faces w_face (du)(dv)/h.

        This is the exact quadratic form of -laplacian against the mesh
        quadrature, i.e. <-lap(u), v>_w == dirichlet_form(u, v) up to the
        degenerate endpoint masses of an interval.
        """
        grad = self._operators["grad"]
        du = grad @ _as_values(u, self.node_count)
        dv = grad @ _as_values(v, self.node_count)
        return float(np.sum(self._face_weights * du * dv) / self.h)

    @cached_property
    def _operators(self) -> dict:
        """The difference operators with integer coefficients, and the
        matrices scaled from them; every entry a read-only CSR array.

        ``diff1`` and ``diff2`` are 2h D1 and h^2 D2; ``grad`` takes the face
        differences u_{j+1} - u_j and ``div`` is its transpose.
        """
        import scipy.sparse as sp

        n, h = self.node_count, self.h
        if self.topology == CIRCLE:
            # the corner offsets +-(n-1) close the periodic stencils
            diff1 = sp.diags_array([-1.0, 1.0, 1.0, -1.0], offsets=[-1, 1, 1 - n, n - 1],
                                   shape=(n, n))
            diff2 = sp.diags_array([1.0, -2.0, 1.0, 1.0, 1.0], offsets=[-1, 0, 1, 1 - n, n - 1],
                                   shape=(n, n))
            grad = sp.diags_array([-1.0, 1.0, 1.0], offsets=[0, 1, 1 - n], shape=(n, n))
        else:
            # second-order one-sided closures in the first and last rows
            diff1 = sp.diags_array([-1.0, 1.0], offsets=[-1, 1], shape=(n, n), format="lil")
            diff1[0, :3], diff1[n - 1, n - 3:] = [-3.0, 4.0, -1.0], [1.0, -4.0, 3.0]
            diff2 = sp.diags_array([1.0, -2.0, 1.0], offsets=[-1, 0, 1], shape=(n, n),
                                   format="lil")
            diff2[0, :4], diff2[n - 1, n - 4:] = [2.0, -5.0, 4.0, -1.0], [-1.0, 4.0, -5.0, 2.0]
            grad = sp.diags_array([-1.0, 1.0], offsets=[0, 1], shape=(n - 1, n))
        # S = grad^T diag(w_face) grad / h
        stiffness = grad.T @ sp.diags_array(self._face_weights) @ grad / h
        ops = {"diff1": diff1, "diff2": diff2, "grad": grad, "div": grad.T,
               "d1": diff1 / (2.0 * h), "d2": diff2 / (h * h), "stiffness": stiffness,
               "laplacian": -sp.diags_array(1.0 / self._cell_volumes) @ stiffness}
        ops = {name: sp.csr_array(op) for name, op in ops.items()}
        for op in ops.values():
            for arr in (op.data, op.indices, op.indptr):
                arr.setflags(write=False)
        return ops

    def d1_matrix(self) -> sp.csr_array:
        """Matrix of `derivative`, an (N, N) CSR array."""
        return self._operators["d1"]

    def d2_matrix(self) -> sp.csr_array:
        """Matrix of `second_derivative`, an (N, N) CSR array."""
        return self._operators["d2"]

    def stiffness_matrix(self) -> sp.csr_array:
        """Stiffness S, an (N, N) CSR array with u.S.v == dirichlet_form(u, v)."""
        return self._operators["stiffness"]

    def laplacian_matrix(self) -> sp.csr_array:
        """Matrix of `laplacian`, an (N, N) CSR array: L = -diag(1/vol) S.

        ``vol`` are the Laplacian's cell volumes: the quadrature masses, with
        the half-cell rule at vanishing interval endpoints.
        """
        return self._operators["laplacian"]

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
    to every node.  Any other shape is a ValueError."""
    values = np.array(profile(nodes) if callable(profile) else profile, dtype=float)
    if callable(profile) and values.ndim == 0:
        values = np.full(nodes.shape, values)
    if values.shape != nodes.shape:
        raise ValueError(f"profile has shape {values.shape}, the mesh has {len(nodes)} nodes")
    return values


def build_mesh(topology: str, n: int, length: float, weight) -> QuotientMesh:
    """Build a uniform mesh with weights sampled from ``weight``.

    ``weight`` is sampled by `sample_profile`.  Circle meshes omit the
    duplicate endpoint.  Endpoint weights of interval meshes that vanish
    analytically are snapped to exact zero when the sample falls below 1e-12
    of the maximum.
    """
    if n < 16:
        raise ValueError(f"need at least 16 nodes, got {n}")
    if length <= 0:
        raise ValueError("length must be positive")
    if topology == CIRCLE:
        h = length / n
        nodes = h * np.arange(n)
    elif topology == INTERVAL:
        h = length / (n - 1)
        nodes = h * np.arange(n)
        nodes[-1] = length
    else:
        raise ValueError(f"unknown topology {topology!r}")

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
