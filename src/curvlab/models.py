"""Concrete invariant-metric families with closed-form curvature.

Two desk-scale testbeds:

* Warped products g = dr^2 + f(r)^2 g_F over a circle, fiber dimension k >= 2
  with an Einstein fiber of constant scalar curvature c_F.  Realizes invariant
  metrics whose orbit space is one-dimensional.  Scalar curvature:

      scal = c_F / f^2 - 2k f''/f - k(k-1) (f'/f)^2

  and the two Ricci eigenvalues (radial / fiber diagonal frame):

      Ric_rr    = -k f''/f
      Ric_fiber = -f''/f - (k-1)(f'/f)^2 + (c_F/k)/f^2

* Left-invariant metrics on a compact Lie algebra, stored as structure
  constants c[i,j,l] in an orthonormal basis of a bi-invariant reference
  inner product, together with a positive tensor P giving the metric
  g(X, Y) = Q(P X, Y).  With eigenvalues lam of P and structure constants
  rotated into the eigenbasis, the scalar curvature has the closed form

      scal = sum_{abk} c_{abk}^2 [ 1/lam_k - 3 lam_k / (4 lam_a lam_b)
                                   + (lam_a - lam_b)^2 / (4 lam_a lam_b lam_k) ]

  while `sectional_left_invariant` evaluates the full curvature tensor from
  the Koszul formula and serves as an independent route to the same numbers.

The generalized diagonal family A(r) dr^2 + B(r) g_F (needed once metrics are
perturbed away from warped form) is covered by `scal_diagonal`.  The warped
case is `scal_diagonal` at A = 1, B = f^2, and `scal_warped` evaluates it
that way, so both families share one discrete curvature formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import _frozen
from .mesh import CIRCLE, QuotientMesh, build_mesh, sample_profile, uniform_nodes

_JACOBI_TOL = 1e-10


@dataclass(frozen=True)
class YamabeConstants:
    """The dimensional constants of the conformal scalar-curvature equation."""

    n: int
    b_n: float
    gamma_n: float
    two_star: float

    @classmethod
    def for_dimension(cls, n: int) -> "YamabeConstants":
        if n < 3:
            raise ValueError(f"dimension must be at least 3, got {n}")
        return cls(
            n=n,
            b_n=(n - 1) / (n - 2),
            gamma_n=(n + 2) / (n - 2),
            two_star=2 * n / (n - 2),
        )


# ---------------------------------------------------------------------------
# warped products over a circle
# ---------------------------------------------------------------------------


def _check_warping(f: np.ndarray) -> None:
    if not np.all(np.isfinite(f)):
        raise ValueError("warping must be finite")
    if np.any(f <= 0):
        raise ValueError("warping must be strictly positive")


@dataclass(frozen=True)
class WarpedProductMetric:
    """g = dr^2 + f(r)^2 g_F over a circle; mesh weight is kept equal to f^k.

    ``fiber_scal`` is the constant scalar curvature of the unit fiber metric;
    it may be negative (hyperbolic fibers), which is how constant negative
    curvature models enter the catalogue.
    """

    mesh: QuotientMesh
    fiber_dim: int
    fiber_scal: float
    warping: np.ndarray

    def __post_init__(self):
        if self.mesh.topology != CIRCLE:
            raise ValueError("warped-product models live over a circle quotient")
        if self.fiber_dim < 2:
            raise ValueError("fiber dimension must be >= 2 (total dimension >= 3)")
        if not np.isfinite(self.fiber_scal):
            raise ValueError("fiber scalar curvature must be finite")
        f = _frozen.store(self, "warping", (self.mesh.node_count,))
        _check_warping(f)
        if not np.allclose(self.mesh.weights, f**self.fiber_dim, rtol=1e-12, atol=0):
            raise ValueError("mesh weights must equal warping^fiber_dim")

    @property
    def dim(self) -> int:
        return self.fiber_dim + 1

    @classmethod
    def from_profile(cls, n: int, length: float, fiber_dim: int, fiber_scal: float,
                     profile) -> "WarpedProductMetric":
        """Sample the warping profile on the circle nodes (`sample_profile`)
        and build the mesh."""
        f = sample_profile(profile, uniform_nodes(CIRCLE, n, length)[1])
        _check_warping(f)
        mesh = build_mesh(CIRCLE, n, length, f**fiber_dim)
        return cls(mesh=mesh, fiber_dim=fiber_dim, fiber_scal=fiber_scal, warping=f)

    def scaled(self, c: float) -> "WarpedProductMetric":
        """The homothety c*g: warping and length scale by sqrt(c)."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        s = np.sqrt(c)
        return WarpedProductMetric.from_profile(
            self.mesh.node_count, s * self.mesh.length, self.fiber_dim,
            self.fiber_scal, s * self.warping,
        )


def scal_warped(metric: WarpedProductMetric) -> np.ndarray:
    """Nodewise scalar curvature of a warped product: `scal_diagonal` at A = 1."""
    return scal_diagonal(metric.mesh, np.ones(metric.mesh.node_count), metric.warping**2,
                         metric.fiber_dim, metric.fiber_scal)


def ricci_warped(metric: WarpedProductMetric):
    """Radial and fiber diagonal Ricci values (g-orthonormal frame)."""
    f = metric.warping
    k = metric.fiber_dim
    df = metric.mesh.derivative(f)
    d2f = metric.mesh.second_derivative(f)
    ric_rr = -k * d2f / f
    ric_fiber = -d2f / f - (k - 1) * (df / f) ** 2 + (metric.fiber_scal / k) / f**2
    return ric_rr, ric_fiber


@dataclass(frozen=True)
class DiagonalInvariantMetric:
    """General invariant diagonal metric A(r) dr^2 + B(r) g_F over a circle;
    a mesh of another topology is a `ValueError`.

    The warped family is the special case A == 1, B == f^2.  Perturbations
    produced by the prescription machinery live here.
    """

    mesh: QuotientMesh
    fiber_dim: int
    fiber_scal: float
    radial: np.ndarray   # A
    fiber: np.ndarray    # B

    def __post_init__(self):
        if self.mesh.topology != CIRCLE:
            raise ValueError("diagonal invariant metrics live over a circle quotient")
        n = self.mesh.node_count
        for name in ("radial", "fiber"):
            a = _frozen.store(self, name, (n,))
            if not np.all((a > 0) & (a < np.inf)):
                raise ValueError(f"{name} component must be finite and positive")

    def scal(self) -> np.ndarray:
        return scal_diagonal(self.mesh, self.radial, self.fiber,
                             self.fiber_dim, self.fiber_scal)

    def scaled(self, c: float) -> "DiagonalInvariantMetric":
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return DiagonalInvariantMetric(self.mesh, self.fiber_dim, self.fiber_scal,
                                       c * self.radial, c * self.fiber)


def as_diagonal(metric: WarpedProductMetric) -> DiagonalInvariantMetric:
    return DiagonalInvariantMetric(
        mesh=metric.mesh, fiber_dim=metric.fiber_dim, fiber_scal=metric.fiber_scal,
        radial=np.ones(metric.mesh.node_count), fiber=metric.warping**2,
    )


def scal_diagonal(mesh: QuotientMesh, A, B, fiber_dim: int, fiber_scal: float) -> np.ndarray:
    """Scalar curvature of A dr^2 + B g_F.

    Written through the effective warping F = sqrt(B) and the arclength
    substitution d/ds = A^{-1/2} d/dr, so that the difference operators hit F,
    not B.  At A == 1 it is the warped formula on F; `scal_warped` is this
    function there.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.all(A > 0) and np.all(B > 0)):
        raise ValueError("metric components must be positive")
    k = fiber_dim
    F = np.sqrt(B)
    Ar = mesh.derivative(A)
    Fr = mesh.derivative(F)
    Frr = mesh.second_derivative(F)
    return (fiber_scal / B
            - 2.0 * k * Frr / (A * F)
            + k * Fr * Ar / (A**2 * F)
            - k * (k - 1) * Fr**2 / (A * F**2))


# ---------------------------------------------------------------------------
# left-invariant metrics on compact Lie algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftInvariantMetric:
    """Structure constants in a bi-invariant-orthonormal basis plus tensor P.

    ``structure[i, j, l]`` is the l-th coordinate of the bracket [v_i, v_j];
    full antisymmetry of the array encodes bi-invariance of the reference
    inner product.  The metric is g(X, Y) = (P X) . Y.
    """

    structure: np.ndarray
    tensor: np.ndarray

    def __post_init__(self):
        c = _frozen.store(self, "structure", (None, None, None))
        d = c.shape[0]
        if c.shape != (d, d, d):
            raise ValueError("structure constants must be a (d, d, d) array")
        if not np.allclose(c, -np.swapaxes(c, 0, 1), atol=1e-12):
            raise ValueError("structure constants must be antisymmetric in (i, j)")
        if not np.allclose(c, -np.swapaxes(c, 1, 2), atol=1e-12):
            raise ValueError("bi-invariance requires full antisymmetry of c_ijl")
        jac = (np.einsum('ijm,mkl->ijkl', c, c)
               + np.einsum('jkm,mil->ijkl', c, c)
               + np.einsum('kim,mjl->ijkl', c, c))
        if np.max(np.abs(jac)) > _JACOBI_TOL:
            raise ValueError("Jacobi identity violated")
        P = _frozen.store(self, "tensor", (d, d))
        if not np.all(np.isfinite(P)):
            raise ValueError("tensor must be finite")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("tensor must be symmetric")
        if np.min(np.linalg.eigvalsh(P)) <= 0:
            raise ValueError("tensor must be positive definite")

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    def bracket(self, X, Y) -> np.ndarray:
        return np.einsum('ijl,i,j->l', self.structure, X, Y)

    def with_tensor(self, P) -> "LeftInvariantMetric":
        return LeftInvariantMetric(self.structure, P)


def su2_structure() -> np.ndarray:
    """Epsilon-tensor structure constants (the 3-sphere group)."""
    c = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, l] = 1.0
        c[j, i, l] = -1.0
    return c


def su2_metric(tensor=None) -> LeftInvariantMetric:
    return LeftInvariantMetric(su2_structure(), np.eye(3) if tensor is None else tensor)


def abelian_metric(dim: int, tensor=None) -> LeftInvariantMetric:
    return LeftInvariantMetric(np.zeros((dim, dim, dim)), np.eye(dim) if tensor is None else tensor)


def su2_plus_line_structure() -> np.ndarray:
    """su(2) + a central direction (the algebra of SU(2) x S^1)."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = su2_structure()
    return c


def _koszul_derivatives(m: LeftInvariantMetric, X, Y) -> np.ndarray:
    """Levi-Civita derivatives nabla_{X_r} Y_r of left-invariant fields, one
    per row of X and Y, from the Koszul formula with one solve against P for
    all rows."""
    c, P = m.structure, m.tensor
    v1 = np.einsum('jkl,rj,rl->rk', c, Y, X @ P.T)
    v2 = np.einsum('kil,ri,rl->rk', c, X, Y @ P.T)
    brackets = np.einsum('ijl,ri,rj->rl', c, X, Y)
    return 0.5 * (brackets + np.linalg.solve(P, (v2 - v1).T).T)


def sectional_left_invariant(m: LeftInvariantMetric, X, Y) -> float:
    """Unnormalized sectional curvature g(R(X, Y)Y, X).

    Quadratic in each argument, symmetric, and zero on degenerate planes.
    Evaluated from the Koszul formula in two stages, one solve against P
    each: nabla_Y Y and nabla_X Y, then the three derivatives of
    R(X, Y)Y = nabla_X nabla_Y Y - nabla_Y nabla_X Y - nabla_[X,Y] Y.  On a
    bi-invariant metric it reduces to |[X, Y]|^2 / 4.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    nYY, nXY = _koszul_derivatives(m, np.stack((Y, X)), np.stack((Y, Y)))
    first, second, third = _koszul_derivatives(m, np.stack((X, Y, m.bracket(X, Y))),
                                               np.stack((nYY, nXY, Y)))
    R = first - second - third
    return float((m.tensor @ R) @ X)


def scal_left_invariant(m: LeftInvariantMetric) -> float:
    """Scalar curvature via the eigenbasis closed form (see module docstring)."""
    lam, O = np.linalg.eigh(m.tensor)
    if np.min(lam) <= 0:
        raise ValueError("tensor must be positive definite")
    ch = np.einsum('ijl,ia,jb,lc->abc', m.structure, O, O, O)
    c2 = ch**2
    la = lam[:, None, None]
    lb = lam[None, :, None]
    lk = lam[None, None, :]
    term = 1.0 / lk - 3.0 * lk / (4.0 * la * lb) + (la - lb) ** 2 / (4.0 * la * lb * lk)
    return float(np.sum(c2 * term))


# ---------------------------------------------------------------------------
# model catalogue
# ---------------------------------------------------------------------------

_BERGER_RE = re.compile(r"^su2-berger\(([^)]+)\)$")

# name: (fiber scalar curvature as a function of the fiber dimension, default warping)
_WARPED_TABLE = {"round-fiber": (lambda dim: dim * (dim - 1) * 1.0, np.ones_like),
                 "flat-torus": (lambda dim: 0.0, np.ones_like),
                 "hyperbolic-fiber": (lambda dim: -2.0, np.ones_like),
                 "bumpy": (lambda dim: dim * (dim - 1) * 1.0, lambda r: 1.0 + 0.2 * np.sin(r))}
WARPED_PRESETS = tuple(_WARPED_TABLE)
GROUP_PRESETS = ("su2-biinvariant", "su2-berger(L)")


def get_preset(name: str, n: int = 64, length: float = 2 * np.pi,
               fiber_dim: int = 3, profile=None):
    """Resolve a catalogue preset by name.

    Warped presets return a WarpedProductMetric; the su2 presets return a
    LeftInvariantMetric.  ``profile`` overrides the warping profile.
    """
    if name in _WARPED_TABLE:
        fiber_scal, default = _WARPED_TABLE[name]
        return WarpedProductMetric.from_profile(n, length, fiber_dim, fiber_scal(fiber_dim),
                                                default if profile is None else profile)
    if name == "su2-biinvariant":
        return su2_metric()
    match = _BERGER_RE.match(name)
    if match:
        lam = float(match.group(1))
        if lam <= 0:
            raise ValueError("Berger parameter must be positive")
        return su2_metric(np.diag([lam, 1.0, 1.0]))
    raise KeyError(f"unknown preset {name!r}")
