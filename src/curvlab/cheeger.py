"""Pointwise curvature of metrics shrunk along group orbits.

Shrinking an invariant metric along orbit directions with an auxiliary
bi-invariant inner product produces a one-parameter family g_t whose scalar
curvature at a point decomposes into three sums over an adapted orthonormal
basis (normal directions e_i, orbit directions generated by an eigenbasis
v_i of the orbit tensor P with eigenvalues lam_i):

    scal_t = sum K(C_t^{1/2} e_a, C_t^{1/2} e_b)
           + sum twist_term(C_t^{1/2} e_a, C_t^{1/2} e_b)
           + sum lam_i lam_j t^3 / ((1+t lam_i)(1+t lam_j)) * |[v_i, v_j]|^2 / 4

where C_t is the identity on the normal space and (1 + tP)^{-1} on the orbit.
The twist term is the exact constrained maximum

    3t * max_{|Z|=1} (dw_Z(X, Y) + (t/2) <[PU, PV], Z>)^2 / (t g(Z*, Z*) + 1)

of a rank-one quadratic over an affine-in-t positive form; on the unit sphere
the denominator equals Z.(I + tS).Z with S the orbit block of P, so the max
is the generalized eigenvalue l.(I + tS)^{-1}.l of the coefficient vector l.
It is evaluated in the eigenbasis of P, where I + tS is diagonal, with no
search or solve; the dense-sampling route survives as a test oracle.  t may
be a 1-D array of times: the t-independent work is done once per call, and
P's eigenbasis once per `OrbitData`.

Every pair summand is symmetric in its pair: the sectional curvature, the
twist term (its coefficient vector l changes sign with the pair), the
bracket norm |[v_i, v_j]|^2 and the shrink factors.  `scal_cheeger`
therefore sums each block over unordered pairs and counts each twice.

The exterior-derivative data dw_Z feeding the numerator:

  * orbit-orbit pairs come from the algebra,
        dw_Z(U*, V*) = <[PU, V] + [U, PV] - P[U, V], Z> / 2
    (the half is the normalization of the one-form w_Z = g(., Z*)/2 and is
    fixed by the requirement that on a group manifold the assembled scal_t
    exactly equals the scalar curvature of the deformed tensor
    P_t = (1 + tP)^{-1} P; see deformed_group_metric);
  * normal-normal pairs against orbit-algebra directions are model-supplied
    tables (zero by default);
  * normal-normal pairs against isotropy directions are the derivative of the
    isotropy representation: dw_Z(e_i, e_j) = g(e_i, rho_{e_j}(Z)), which is
    what makes singular orbits raise the large-t curvature by the isotropy
    term xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _frozen
from .errors import PreconditionError
from .models import LeftInvariantMetric, sectional_left_invariant

_TABLE_TOL = 1e-10


@dataclass(frozen=True)
class TangentSplit:
    """A tangent vector split into normal part and orbit-algebra part."""

    normal: np.ndarray
    orbit: np.ndarray

    def __post_init__(self):
        _frozen.store(self, "normal", (None,))
        _frozen.store(self, "orbit", (None,))


@dataclass(frozen=True)
class IsotropyData:
    """Isotropy-representation derivative at a singular point.

    ``rho_maps[i]`` is the matrix of rho_{e_i}: isotropy algebra -> normal
    space, shape (normal_dim, isotropy_dim); its column b is the normal vector
    rho_{e_i}(z_b).  Genuine isotropy data is skew across the normal index:
    g(e_a, rho_{e_i}(z)) = -g(e_i, rho_{e_a}(z)); this is validated because
    the twist-term symmetry relies on it.
    """

    isotropy_dim: int
    rho_maps: np.ndarray

    def __post_init__(self):
        rho = _frozen.store(self, "rho_maps", (None, None, self.isotropy_dim))
        if rho.shape[0] != rho.shape[1]:
            raise ValueError("rho_maps must have shape (normal_dim, normal_dim, isotropy_dim)")
        for b in range(self.isotropy_dim):
            omega = rho[:, :, b].T  # omega[a, i] = g(e_a, rho_{e_i}(z_b))
            if np.max(np.abs(omega + omega.T)) > _TABLE_TOL:
                raise ValueError("isotropy data must be skew across normal indices")

    @property
    def normal_dim(self) -> int:
        return self.rho_maps.shape[0]


@dataclass(frozen=True)
class OrbitData:
    """Everything the pointwise curvature formula needs at one point.

    algebra           orbit part of the symmetry algebra with tensor P
    normal_dim        dimension of the space normal to the orbit
    normal_sectionals K(e_i, e_j) over a g-orthonormal normal basis
    mixed_sectionals  K(e_i, v_j*) against the eigenbasis of P (orbit index
                      ordered by ascending eigenvalue)
    dw_normal         dw_{v_a}(e_i, e_j) tables for orbit-algebra directions
                      v_a of the stored basis; antisymmetric in (i, j)

    Orbit-orbit sectionals are computed from the algebra itself, which is
    exact on a group manifold and is the modeling convention for synthetic
    points (where they only enter the bounded first sum).
    """

    algebra: LeftInvariantMetric
    normal_dim: int = 0
    normal_sectionals: np.ndarray | None = None
    mixed_sectionals: np.ndarray | None = None
    dw_normal: np.ndarray | None = None

    def __post_init__(self):
        k = self.algebra.dim
        m = self.normal_dim
        if m < 0:
            raise ValueError("normal_dim must be nonnegative")
        if self.normal_sectionals is not None:
            t = _frozen.store(self, "normal_sectionals", (m, m))
            if np.max(np.abs(t - t.T)) > _TABLE_TOL or np.max(np.abs(np.diag(t))) > _TABLE_TOL:
                raise ValueError("normal_sectionals must be symmetric with zero diagonal")
        if self.mixed_sectionals is not None:
            _frozen.store(self, "mixed_sectionals", (m, k))
        if self.dw_normal is not None:
            t = _frozen.store(self, "dw_normal", (k, m, m))
            if np.max(np.abs(t + np.swapaxes(t, 1, 2))) > _TABLE_TOL:
                raise ValueError("dw_normal tables must be antisymmetric in the normal pair")

    @property
    def orbit_dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def _tensor_eig(self) -> tuple:
        """(lam, O) of `orbit_tensor_eig`, factored once, read-only."""
        lam, O = np.linalg.eigh(self.algebra.tensor)
        if np.min(lam) <= 0:
            raise PreconditionError("orbit tensor must be positive definite",
                                    condition="orbit-tensor-positivity")
        lam.setflags(write=False)
        O.setflags(write=False)
        return lam, O


def orbit_tensor_eig(orbit: OrbitData):
    """Ascending eigenvalues and orthonormal eigenbasis of the orbit tensor,
    computed once per `OrbitData`."""
    return orbit._tensor_eig


def _times(t: float | np.ndarray) -> np.ndarray:
    """Deformation times as a 0-d or 1-d float array, checked nonnegative."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("deformation times must be a float or a 1-D array")
    if not np.all(ts >= 0):
        raise ValueError("deformation time must be nonnegative")
    return ts


def _check_isotropy(iso: IsotropyData | None, normal_dim: int | None) -> None:
    """Isotropy data must act on a normal space of the point's dimension."""
    if iso is not None and normal_dim and iso.normal_dim != normal_dim:
        raise ValueError("isotropy data normal dimension mismatch")


def _twist_vector(orbit: OrbitData, x: TangentSplit, y: TangentSplit,
                  iso: IsotropyData | None):
    """Parts of the twist numerator l(t) = (a_orbit + (t/2) br, a_iso)."""
    alg = orbit.algebra
    P = alg.tensor
    m = orbit.normal_dim
    U, V = x.orbit, y.orbit
    Xn, Yn = x.normal, y.normal

    a_orbit = 0.5 * (alg.bracket(P @ U, V) + alg.bracket(U, P @ V) - P @ alg.bracket(U, V))
    if orbit.dw_normal is not None and m:
        a_orbit = a_orbit + np.einsum('aij,i,j->a', orbit.dw_normal, Xn, Yn)
    br = alg.bracket(P @ U, P @ V)

    if iso is not None and iso.isotropy_dim and m:
        # dw_Z(X, Y) = g(X, rho_Y(Z)) componentwise over the isotropy basis
        a_iso = np.einsum('a,jab,j->b', Xn, iso.rho_maps, Yn)
    else:
        a_iso = np.zeros(0)
    return a_orbit, br, a_iso


def twist_term(orbit: OrbitData, t: float | np.ndarray, x: TangentSplit, y: TangentSplit,
               iso: IsotropyData | None = None) -> float | np.ndarray:
    """Exact constrained maximum of the deformation correction term.

    The numerator (l . Z)^2 is a rank-one quadratic form and the denominator
    equals Z.(I + tS).Z on the unit sphere, so the maximum over the sphere is
    l . (I + tS)^{-1} . l, attained at Z proportional to (I + tS)^{-1} l.
    In P's eigenbasis (lam, O) that is 3t (sum_c (O^T l)_c^2 / (1 + t lam_c)
    + |a_iso|^2).  ``t``: a float, or a 1-D array of times for an array out.
    Nonnegative for every input; exactly zero at t = 0.
    """
    ts = _times(t)
    a_orbit, br, a_iso = _twist_vector(orbit, x, y, iso)
    lam, O = orbit_tensor_eig(orbit)
    tc = ts[..., None]
    coef = O.T @ a_orbit + 0.5 * tc * (O.T @ br)
    value = 3.0 * ts * (np.sum(coef**2 / (1.0 + tc * lam), axis=-1) + a_iso @ a_iso)
    return value if ts.ndim else float(value)


def scal_cheeger(orbit: OrbitData, iso: IsotropyData | None,
                 t: float | np.ndarray) -> float | np.ndarray:
    """Exact deformed scalar curvature at the point; the undeformed value at t=0.

    ``t``: a float, or a 1-D array of times for an array out.  The sums are
    taken in P's eigenbasis, where twist_term evaluates its maximum.
    """
    ts = _times(t)
    alg = orbit.algebra
    k = alg.dim
    m = orbit.normal_dim
    _check_isotropy(iso, m)
    lam, O = orbit_tensor_eig(orbit)
    ch = np.einsum('ijl,ia,jb,lc->abc', alg.structure, O, O, O)
    shrink = 1.0 + ts[..., None] * lam

    total = np.zeros(ts.shape)

    # each pair block sums its unordered pairs, twice each (module docstring)

    # normal-normal block
    if m and orbit.normal_sectionals is not None:
        total += float(np.sum(orbit.normal_sectionals))
    eye_m, zeros_m, zeros_k = np.eye(m), np.zeros(m), np.zeros(k)
    for i, j in combinations(range(m), 2):
        total += 2.0 * twist_term(orbit, ts, TangentSplit(eye_m[i], zeros_k),
                                  TangentSplit(eye_m[j], zeros_k), iso)

    # mixed block (tables indexed against the eigenbasis of P)
    if m and orbit.mixed_sectionals is not None:
        mixed = np.sum(orbit.mixed_sectionals, axis=0)
        total += 2.0 * np.sum(mixed / (lam * shrink), axis=-1)

    # orbit-orbit block
    for i, j in combinations(range(k), 2):
        sec = sectional_left_invariant(alg, O[:, i], O[:, j])
        twist = twist_term(orbit, ts, TangentSplit(zeros_m, O[:, i] / np.sqrt(lam[i])),
                           TangentSplit(zeros_m, O[:, j] / np.sqrt(lam[j])), iso)
        nb2 = float(np.sum(ch[i, j, :] ** 2))
        total += 2.0 * (sec / (lam[i] * lam[j]) + twist
                        + lam[i] * lam[j] * ts**3 * 0.25 * nb2) / (shrink[..., i] * shrink[..., j])
    return total if ts.ndim else float(total)


def homogeneous_scal(orbit: OrbitData) -> float:
    """Quarter sum of squared bracket norms over the orbit algebra basis.

    This is the large-t limit of the third curvature sum divided by t, and is
    basis independent; it reads only the brackets, never the tensor P.
    """
    return 0.25 * float(np.sum(orbit.algebra.structure ** 2))


def isotropy_term(iso: IsotropyData | None, normal_dim: int | None = None) -> float:
    """Sum of |proj|^4 / |rho^{-1} proj|^2 over normal basis pairs.

    The projection is onto the image of each rho map; the restricted inverse
    is realized by the pseudo-inverse.  Pairs with vanishing projection
    contribute zero.  Regular points (no isotropy data) give zero.  A nonzero
    ``normal_dim`` other than the isotropy data's raises ValueError.
    """
    _check_isotropy(iso, normal_dim)
    if iso is None or iso.isotropy_dim == 0:
        return 0.0
    m = iso.normal_dim if normal_dim is None else normal_dim
    total = 0.0
    for rho in iso.rho_maps[:m]:
        pinv = np.linalg.pinv(rho)
        # column j: squared norms of proj e_j = rho rho^+ e_j and of rho^+ e_j
        h2 = np.sum((rho @ pinv) ** 2, axis=0)
        pre2 = np.sum(pinv**2, axis=0)
        keep = h2 >= 1e-26
        total += float(np.sum(h2[keep] ** 2 / pre2[keep]))
    return total


def pinching_limit(points) -> float:
    """Large-t ratio of extremal deformed scalar curvature over the points.

    Each point is (OrbitData, IsotropyData or None); the value at a point is
    homogeneous_scal + 3 * isotropy_term.  Rejected for abelian algebras
    (the limit statement needs brackets) and when the minimum vanishes;
    isotropy data on a normal space of another dimension raises ValueError.
    """
    points = list(points)
    if not points:
        raise PreconditionError("need at least one point", condition="empty-point-set")
    values = []
    for orbit, iso in points:
        if np.max(np.abs(orbit.algebra.structure)) < 1e-14:
            raise PreconditionError("abelian symmetry algebra: large-t pinching does not apply",
                                    condition="non-abelian-algebra")
        values.append(homogeneous_scal(orbit) + 3.0 * isotropy_term(iso, orbit.normal_dim))
    lo, hi = min(values), max(values)
    if lo <= 0:
        raise PreconditionError("minimal limit value vanishes", condition="positive-limit")
    return hi / lo


def deformed_group_metric(m: LeftInvariantMetric, t: float) -> LeftInvariantMetric:
    """The orbit shrinking of a group manifold is again left-invariant.

    Same brackets, tensor P_t = (1 + tP)^{-1} P; eigenvalues map to
    lam / (1 + t lam).  Used as the independent oracle for scal_cheeger.
    """
    if t < 0:
        raise ValueError("deformation time must be nonnegative")
    P = m.tensor
    Pt = np.linalg.solve(np.eye(m.dim) + t * P, P)
    Pt = 0.5 * (Pt + Pt.T)
    return m.with_tensor(Pt)
