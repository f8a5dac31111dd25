"""Curvature of fiber-scaled submersion metrics at a point.

For a submersion with totally geodesic fibers, scaling the metric by s along
the fibers changes sectional curvatures by plane type: horizontal-horizontal
mixes base and total-space values, mixed planes pick up s^2, and vertical
planes scale by s.  Assembling these over an adapted orthonormal basis gives
a rational function of s with a 1/s fiber term, so a positively curved fiber
dominates as s -> 0; the positivity threshold is the first positive root of
a cubic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _frozen
from .errors import PreconditionError

# roots whose imaginary part is below this fraction of their modulus are real:
# a double root comes back from np.roots as a pair split by about sqrt(eps)
_REAL_ROOT_TOL = 1e-7


@dataclass(frozen=True)
class SubmersionPointData:
    """Pointwise sectional data of a submersion with totally geodesic fibers.

    K_base[i, j]   sectional curvature of the base at the projected plane
    K_tot_hh[i, j] total-space curvature of the horizontal plane (i, j)
    K_mixed[i, j]  total-space curvature of horizontal i with vertical j
    fiber_scal     scalar curvature of the fiber metric at the point
    """

    base_dim: int
    fiber_dim: int
    K_base: np.ndarray
    K_tot_hh: np.ndarray
    K_mixed: np.ndarray
    fiber_scal: float

    def __post_init__(self):
        nb, k = self.base_dim, self.fiber_dim
        if k < 1:
            raise ValueError("fiber dimension must be at least 1")
        if not np.isfinite(self.fiber_scal):
            raise ValueError("fiber scalar curvature must be finite")
        for name in ("K_base", "K_tot_hh"):
            t = _frozen.store(self, name, (nb, nb))
            if np.max(np.abs(t - t.T), initial=0.0) > 1e-12:
                raise ValueError(f"{name} must be symmetric")
            if np.max(np.abs(np.diag(t)), initial=0.0) > 1e-12:
                raise ValueError(f"{name} must have zero diagonal")
        _frozen.store(self, "K_mixed", (nb, k))


def cv_sectional(data: SubmersionPointData, s: float, plane: str, i: int = 0,
                 j: int = 0, fiber_k: float = 0.0) -> float:
    """Deformed sectional curvature of one plane.

    plane "hh": K_base(i,j) (1-s) + s K_tot(i,j)
    plane "hv": s^2 K_mixed(i,j)
    plane "vv": s * fiber_k, with fiber_k the undeformed fiber sectional
    """
    if not s > 0:
        raise ValueError("fiber scale must be positive")
    if plane == "hh":
        return float(data.K_base[i, j] * (1.0 - s) + s * data.K_tot_hh[i, j])
    if plane == "hv":
        return float(s**2 * data.K_mixed[i, j])
    if plane == "vv":
        return float(s * fiber_k)
    raise ValueError(f"unknown plane type {plane!r}")


def _sums(data: SubmersionPointData) -> tuple:
    """(sb, st, sm): the sums of K_base, K_tot_hh and K_mixed."""
    return tuple(float(np.sum(t)) for t in (data.K_base, data.K_tot_hh, data.K_mixed))


def cv_scal(data: SubmersionPointData, s: float) -> float:
    """Deformed scalar curvature at the point.

    Horizontal part with the plane formula substituted:
        scal_h (1-s) + s [ (1-s) scal_h + s sum K_tot ]
    plus the mixed term 2 s sum K_mixed and the fiber term fiber_scal / s.
    At s = 1 this is the plain orthonormal double sum of the undeformed data.
    """
    if not s > 0:
        raise ValueError("fiber scale must be positive")
    sb, st, sm = _sums(data)
    horiz = sb * (1.0 - s) + s * ((1.0 - s) * sb + s * st)
    return horiz + 2.0 * s * sm + data.fiber_scal / s


def positivity_threshold(data: SubmersionPointData) -> float:
    """Largest s* with cv_scal > 0 on (0, s*); inf when positive for every s > 0.

    Needs a positively curved fiber (the 1/s term guarantees positivity for
    small s).  For s > 0 the sign of cv_scal is that of the cubic
        s cv_scal(s) = (st - sb) s^3 + 2 sm s^2 + sb s + fiber_scal
    (sb, st, sm the sums of K_base, K_tot_hh, K_mixed), so the threshold is
    its smallest positive real root.
    """
    if data.fiber_scal <= 0:
        raise PreconditionError("fiber scalar curvature must be positive",
                                condition="positive-fiber")
    sb, st, sm = _sums(data)
    roots = np.roots([st - sb, 2.0 * sm, sb, data.fiber_scal])
    real = roots.real[np.abs(roots.imag) <= _REAL_ROOT_TOL * np.abs(roots)]
    positive = real[real > 0]
    return float(np.min(positive)) if positive.size else float("inf")
