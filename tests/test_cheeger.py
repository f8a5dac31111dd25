"""Orbit-shrinking deformation engine against the group-metric oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import (IsotropyData, OrbitData, PreconditionError, TangentSplit,
                     deformed_group_metric, homogeneous_scal, isotropy_term,
                     orbit_tensor_eig, pinching_limit, scal_cheeger,
                     scal_left_invariant, su2_metric,
                     su2_plus_line_structure, su2_structure, twist_term)
from curvlab.models import LeftInvariantMetric, abelian_metric, sectional_left_invariant

from oracles import (isotropy_term_loop, ratio_max_sampled_refined, scal_cheeger_ordered_pairs,
                     shrink_map_apply, twist_term_sampled)

T_GRID = (0.0, 0.1, 1.0, 10.0, 100.0)


def random_su2_orbit(rng, spread=(0.6, 1.8)):
    lam = rng.uniform(*spread, 3)
    O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return OrbitData(algebra=su2_metric(O @ np.diag(lam) @ O.T))


def singular_point(alpha=0.8, lam=None):
    """su(2) x circle symmetry: orbit algebra su(2), one isotropy direction
    rotating a 2-plane of the normal space with rate alpha."""
    algebra = su2_metric(np.eye(3) if lam is None else np.diag(lam))
    rho = np.zeros((2, 2, 1))
    rho[0, :, 0] = [0.0, alpha]   # rho_{e_0}(z) = alpha e_1
    rho[1, :, 0] = [-alpha, 0.0]  # rho_{e_1}(z) = -alpha e_0
    iso = IsotropyData(isotropy_dim=1, rho_maps=rho)
    orbit = OrbitData(algebra=algebra, normal_dim=2,
                      normal_sectionals=np.array([[0.0, 0.3], [0.3, 0.0]]),
                      mixed_sectionals=np.zeros((2, 3)))
    return orbit, iso


# ---------------------------------------------------------------------------
# tensor eigendecomposition and the shrink map
# ---------------------------------------------------------------------------


def test_orbit_tensor_identity_eigs():
    lam, _ = orbit_tensor_eig(OrbitData(algebra=su2_metric()))
    assert np.allclose(lam, 1.0)


def test_orbit_tensor_diagonal_eigs_sorted():
    lam, _ = orbit_tensor_eig(OrbitData(algebra=su2_metric(np.diag([2.0, 0.5, 1.0]))))
    assert np.allclose(lam, [0.5, 1.0, 2.0])


def test_orbit_tensor_is_factored_once_per_orbit(monkeypatch):
    orbit = OrbitData(algebra=su2_metric(np.diag([2.0, 0.5, 1.0])))
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    first = orbit_tensor_eig(orbit)
    scal_cheeger(orbit, None, np.array([0.0, 1.0, 10.0]))
    second = orbit_tensor_eig(orbit)
    assert len(calls) == 1
    assert all(a is b and not a.flags.writeable for a, b in zip(first, second))
    assert orbit_tensor_eig(OrbitData(algebra=orbit.algebra))[0] is not first[0]


def test_orbit_tensor_reconstruction():
    rng = np.random.default_rng(41)
    O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    P = O @ np.diag([0.4, 1.1, 2.3]) @ O.T
    orbit = OrbitData(algebra=su2_metric(P))
    lam, vecs = orbit_tensor_eig(orbit)
    rebuilt = (vecs * lam[None, :]) @ vecs.T
    assert np.max(np.abs(rebuilt - P)) < 1e-12


def test_shrink_map_identity_at_zero():
    orbit = OrbitData(algebra=su2_metric(np.diag([0.5, 1.0, 2.0])), normal_dim=2,
                      mixed_sectionals=np.zeros((2, 3)))
    vec = TangentSplit(np.array([1.0, -2.0]), np.array([0.3, 0.7, -1.1]))
    out = shrink_map_apply(orbit, 0.0, vec)
    assert np.allclose(out.normal, vec.normal)
    assert np.allclose(out.orbit, vec.orbit)


def test_shrink_map_scales_identity_tensor():
    orbit = OrbitData(algebra=su2_metric())
    vec = TangentSplit(np.zeros(0), np.array([2.0, 0.0, -4.0]))
    out = shrink_map_apply(orbit, 1.0, vec)
    assert np.allclose(out.orbit, vec.orbit / 2.0)


def test_shrink_map_eigenvector_rate():
    rng = np.random.default_rng(43)
    O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    lam = np.array([0.3, 1.0, 2.5])
    orbit = OrbitData(algebra=su2_metric(O @ np.diag(lam) @ O.T))
    for t in (0.5, 3.0):
        for i in range(3):
            out = shrink_map_apply(orbit, t, TangentSplit(np.zeros(0), O[:, i]))
            assert np.allclose(out.orbit, O[:, i] / (1 + t * lam[i]), atol=1e-12)


# ---------------------------------------------------------------------------
# twist term
# ---------------------------------------------------------------------------


def test_twist_zero_at_time_zero():
    orbit = OrbitData(algebra=su2_metric())
    x = TangentSplit(np.zeros(0), np.array([1.0, 0.0, 0.0]))
    y = TangentSplit(np.zeros(0), np.array([0.0, 1.0, 0.0]))
    assert twist_term(orbit, 0.0, x, y) == 0.0


def test_twist_vanishes_on_abelian_orbit_pairs():
    orbit = OrbitData(algebra=abelian_metric(3, np.diag([0.5, 1.0, 2.0])))
    rng = np.random.default_rng(47)
    for _ in range(5):
        x = TangentSplit(np.zeros(0), rng.normal(size=3))
        y = TangentSplit(np.zeros(0), rng.normal(size=3))
        assert twist_term(orbit, 2.0, x, y) == pytest.approx(0.0, abs=1e-15)


def test_twist_symmetric_and_nonnegative():
    rng = np.random.default_rng(53)
    for _ in range(10):
        orbit = random_su2_orbit(rng)
        x = TangentSplit(np.zeros(0), rng.normal(size=3))
        y = TangentSplit(np.zeros(0), rng.normal(size=3))
        t = float(rng.uniform(0.01, 50.0))
        zxy = twist_term(orbit, t, x, y)
        zyx = twist_term(orbit, t, y, x)
        assert zxy >= 0.0
        assert zxy == pytest.approx(zyx, rel=1e-12, abs=1e-15)


def test_twist_dominates_dense_sampling():
    rng = np.random.default_rng(59)
    for _ in range(10):
        orbit = random_su2_orbit(rng)
        x = TangentSplit(np.zeros(0), rng.normal(size=3))
        y = TangentSplit(np.zeros(0), rng.normal(size=3))
        t = float(rng.uniform(0.05, 20.0))
        det = twist_term(orbit, t, x, y)
        sampled = twist_term_sampled(orbit, t, x, y, samples=20_000, rng=rng)
        assert det >= sampled * (1.0 - 1e-12)


def test_twist_dominates_dense_sampling_at_singular_point():
    # normal and mixed arguments reach the dw tables and the isotropy pairing,
    # which the oracle builds from their definitions
    rng = np.random.default_rng(60)
    dw = np.zeros((3, 2, 2))
    dw[0, 0, 1], dw[0, 1, 0] = 0.7, -0.7
    dw[2, 0, 1], dw[2, 1, 0] = -0.4, 0.4
    for _ in range(10):
        base, iso = singular_point(alpha=float(rng.uniform(0.3, 1.5)), lam=rng.uniform(0.6, 1.8, 3))
        orbit = OrbitData(algebra=base.algebra, normal_dim=2, dw_normal=dw)
        x = TangentSplit(rng.normal(size=2), rng.normal(size=3))
        y = TangentSplit(rng.normal(size=2), rng.normal(size=3))
        t = float(rng.uniform(0.05, 20.0))
        det = twist_term(orbit, t, x, y, iso)
        sampled = twist_term_sampled(orbit, t, x, y, iso, samples=20_000, rng=rng)
        assert det >= sampled * (1.0 - 1e-12)
        assert sampled >= 0.9 * det


def test_twist_ratio_bounded_for_commuting_tensor_arguments():
    # with [PU, PV] = 0 the numerator is t-independent and z_t / t is bounded
    # by 3 max_Z (dw_Z)^2 (the t -> infinity limit form of the numerator)
    rng = np.random.default_rng(61)
    orbit = random_su2_orbit(rng)
    P = orbit.algebra.tensor
    U = rng.normal(size=3)
    V = np.linalg.solve(P, P @ U * 2.0)  # parallel PU, PV: bracket vanishes
    x = TangentSplit(np.zeros(0), U)
    y = TangentSplit(np.zeros(0), V)
    lvec = 0.5 * (orbit.algebra.bracket(P @ U, V) + orbit.algebra.bracket(U, P @ V)
                  - P @ orbit.algebra.bracket(U, V))
    bound = 3.0 * float(lvec @ lvec)
    for t in (0.1, 1.0, 10.0, 1e3, 1e6):
        assert twist_term(orbit, t, x, y) / t <= bound * (1 + 1e-12)


def test_twist_isotropy_limit_is_rho_pairing():
    orbit, iso = singular_point(alpha=0.7)
    x = TangentSplit(np.array([1.0, 0.0]), np.zeros(3))
    y = TangentSplit(np.array([0.0, 1.0]), np.zeros(3))
    t = 1e8
    assert twist_term(orbit, t, x, y, iso) / t == pytest.approx(3 * 0.49, rel=1e-6)


# ---------------------------------------------------------------------------
# deformed scalar curvature
# ---------------------------------------------------------------------------


def test_scal_cheeger_at_zero_is_undeformed_scal():
    rng = np.random.default_rng(67)
    for _ in range(5):
        orbit = random_su2_orbit(rng)
        assert scal_cheeger(orbit, None, 0.0) == pytest.approx(
            scal_left_invariant(orbit.algebra), rel=1e-10)


def test_scal_cheeger_group_oracle_biinvariant():
    orbit = OrbitData(algebra=su2_metric())
    for t in T_GRID:
        expected = scal_left_invariant(deformed_group_metric(su2_metric(), t))
        assert scal_cheeger(orbit, None, t) == pytest.approx(expected, rel=1e-10)


def test_scal_cheeger_group_oracle_random_tensors():
    rng = np.random.default_rng(71)
    for _ in range(8):
        m = random_su2_orbit(rng).algebra
        orbit = OrbitData(algebra=m)
        for t in T_GRID:
            expected = scal_left_invariant(deformed_group_metric(m, t))
            got = scal_cheeger(orbit, None, t)
            assert got == pytest.approx(expected, rel=1e-9)


def test_scal_cheeger_abelian_homogeneous_constant():
    orbit = OrbitData(algebra=abelian_metric(3, np.diag([0.5, 1.0, 2.0])))
    values = [scal_cheeger(orbit, None, t) for t in T_GRID]
    assert np.allclose(values, 0.0, atol=1e-14)


def test_scal_cheeger_positive_after_finite_time():
    # even strongly negatively curved starts develop positive curvature
    m = su2_metric(np.diag([8.0, 1.0, 1.0]))
    orbit = OrbitData(algebra=m)
    assert scal_cheeger(orbit, None, 0.0) < 0
    ts = np.logspace(-2, 4, 60)
    values = np.array([scal_cheeger(orbit, None, float(t)) for t in ts])
    positive = np.nonzero(values > 0)[0]
    assert positive.size > 0
    t0 = ts[positive[0]]
    assert np.all(values[positive[0]:] > 0)
    assert t0 < 1e4


def _random_tensor(rng, d):
    O = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return O @ np.diag(rng.uniform(0.3, 3.0, d)) @ O.T


def _random_point(kind, rng):
    """(orbit, iso, undeformed scal) on su(2), su(2) + line, or demo 03's
    singular point with isotropy and random normal, mixed and dw tables."""
    if kind == "su2+line":
        orbit = OrbitData(algebra=LeftInvariantMetric(su2_plus_line_structure(),
                                                      _random_tensor(rng, 4)))
        return orbit, None, scal_left_invariant(orbit.algebra)
    algebra = LeftInvariantMetric(su2_structure(), _random_tensor(rng, 3))
    if kind == "su2":
        return OrbitData(algebra=algebra), None, scal_left_invariant(algebra)
    _, iso = singular_point(alpha=float(rng.uniform(0.1, 2.0)))
    normal = np.zeros((2, 2))
    normal[0, 1] = normal[1, 0] = rng.normal()
    mixed = rng.normal(size=(2, 3))
    dw = np.zeros((3, 2, 2))
    dw[:, 0, 1] = rng.normal(size=3)
    dw[:, 1, 0] = -dw[:, 0, 1]
    orbit = OrbitData(algebra=algebra, normal_dim=2, normal_sectionals=normal,
                      mixed_sectionals=mixed, dw_normal=dw)
    lam, _ = orbit_tensor_eig(orbit)
    # at t = 0 the shrink map is the identity: the three sectional sums only
    undeformed = np.sum(normal) + 2.0 * np.sum(mixed / lam) + scal_left_invariant(algebra)
    return orbit, iso, undeformed


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["su2", "su2+line", "singular"]), seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(0.0, 1e4), min_size=0, max_size=12),
       zero_at=st.integers(0, 12), negative=st.floats(1e-300, 1e4))
def test_array_times_match_float_times(kind, seed, times, zero_at, negative):
    rng = np.random.default_rng(seed)
    orbit, iso, undeformed = _random_point(kind, rng)
    times.insert(min(zero_at, len(times)), 0.0)
    ts = np.array(times)
    m, k = orbit.normal_dim, orbit.orbit_dim
    x = TangentSplit(rng.normal(size=m), rng.normal(size=k))
    y = TangentSplit(rng.normal(size=m), rng.normal(size=k))

    scal = scal_cheeger(orbit, iso, ts)
    twist = twist_term(orbit, ts, x, y, iso)
    singles = [scal_cheeger(orbit, iso, float(t)) for t in ts]
    assert isinstance(singles[0], float) and scal.shape == twist.shape == ts.shape
    np.testing.assert_allclose(scal, singles, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(twist, [twist_term(orbit, float(t), x, y, iso) for t in ts],
                               rtol=1e-14, atol=0.0)
    zero = ts == 0.0
    assert scal[zero] == pytest.approx(undeformed, rel=1e-10, abs=1e-12)
    assert np.all(twist[zero] == 0.0)

    bad = ts.copy()
    bad[int(rng.integers(ts.size))] = -negative
    with pytest.raises(ValueError):
        scal_cheeger(orbit, iso, bad)
    with pytest.raises(ValueError):
        twist_term(orbit, bad, x, y, iso)


def test_third_sum_limit_is_homogeneous_scal():
    rng = np.random.default_rng(73)
    for _ in range(3):
        orbit = random_su2_orbit(rng)
        lam, O = orbit_tensor_eig(orbit)
        ch = np.einsum('ijl,ia,jb,lc->abc', orbit.algebra.structure, O, O, O)
        t = 1e4
        third = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    third += (lam[i] * lam[j] * t**3
                              / ((1 + t * lam[i]) * (1 + t * lam[j]))
                              * 0.25 * np.sum(ch[i, j, :] ** 2))
        assert third / t == pytest.approx(homogeneous_scal(orbit), rel=1e-2)


def test_scal_cheeger_growth_rate_regular_point():
    rng = np.random.default_rng(79)
    orbit = random_su2_orbit(rng)
    t = 1e4
    assert scal_cheeger(orbit, None, t) / t == pytest.approx(
        homogeneous_scal(orbit), rel=1e-2)


def test_scal_cheeger_growth_rate_singular_point():
    orbit, iso = singular_point(alpha=0.9)
    t = 1e4
    predicted = homogeneous_scal(orbit) + 3.0 * isotropy_term(iso)
    assert scal_cheeger(orbit, iso, t) / t == pytest.approx(predicted, rel=1e-2)


# ---------------------------------------------------------------------------
# limit parameters
# ---------------------------------------------------------------------------


def test_homogeneous_scal_su2():
    assert homogeneous_scal(OrbitData(algebra=su2_metric())) == pytest.approx(1.5)


def test_homogeneous_scal_abelian_zero():
    assert homogeneous_scal(OrbitData(algebra=abelian_metric(3))) == 0.0


def test_homogeneous_scal_ignores_tensor():
    a = OrbitData(algebra=su2_metric())
    b = OrbitData(algebra=su2_metric(np.diag([0.5, 1.0, 2.0])))
    assert homogeneous_scal(a) == homogeneous_scal(b)


def test_isotropy_term_trivial_for_regular_points():
    assert isotropy_term(None) == 0.0
    rho = np.zeros((2, 2, 1))
    assert isotropy_term(IsotropyData(isotropy_dim=1, rho_maps=rho)) == 0.0


def test_isotropy_term_unit_rotation():
    # one isotropy direction rotating e_0 with e_1 at unit rate: both ordered
    # pairs contribute 1
    _, iso = singular_point(alpha=1.0)
    assert isotropy_term(iso) == pytest.approx(2.0, rel=1e-12)


def test_isotropy_term_scales_quadratically():
    _, iso1 = singular_point(alpha=1.0)
    _, iso2 = singular_point(alpha=3.0)
    assert isotropy_term(iso2) == pytest.approx(9.0 * isotropy_term(iso1), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 5), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       zero_maps=st.lists(st.booleans(), min_size=3, max_size=3))
def test_isotropy_term_matches_the_unit_vector_loop(m, d, seed, zero_maps):
    # skew data: omega_b = rho[:, :, b].T is skew for each isotropy direction b;
    # some directions vanish, so some rho maps have lower rank or are zero
    rng = np.random.default_rng(seed)
    rho = np.zeros((m, m, d))
    for b in range(d):
        if not zero_maps[b]:
            a = rng.normal(size=(m, m))
            rho[:, :, b] = a - a.T
    iso = IsotropyData(isotropy_dim=d, rho_maps=rho)
    # sums of at most m^2 terms from 2 pinv products: rounding well below 1e-12
    assert isotropy_term(iso) == pytest.approx(isotropy_term_loop(iso, m), rel=1e-12, abs=1e-300)
    assert isotropy_term(iso, 0) == 0.0


def test_pinching_limit_identical_points_is_one():
    orbit = OrbitData(algebra=su2_metric())
    assert pinching_limit([(orbit, None), (orbit, None)]) == 1.0


def test_pinching_limit_semi_free_exactly_one():
    # discrete isotropy everywhere: no isotropy term, conjugate orbit algebras
    a = OrbitData(algebra=su2_metric())
    b = OrbitData(algebra=su2_metric(np.diag([0.7, 1.0, 1.4])))
    assert pinching_limit([(a, None), (b, None)]) == 1.0


def test_pinching_limit_synthetic_ratio_two():
    # values 3/2 and 3/2 + 3/2 = 3 give ratio 2
    free = OrbitData(algebra=su2_metric())
    orbit, iso = singular_point(alpha=0.5)  # xi = 2 * 0.25 = 0.5 -> value 3/2 + 3/2
    assert pinching_limit([(free, None), (orbit, iso)]) == pytest.approx(2.0, rel=1e-12)


def test_pinching_limit_rejects_abelian():
    orbit = OrbitData(algebra=abelian_metric(3))
    with pytest.raises(PreconditionError):
        pinching_limit([(orbit, None)])


# ---------------------------------------------------------------------------
# deformed group metric
# ---------------------------------------------------------------------------


def test_deformed_metric_identity_at_zero():
    m = su2_metric(np.diag([0.5, 1.0, 2.0]))
    out = deformed_group_metric(m, 0.0)
    assert np.allclose(out.tensor, m.tensor)


def test_deformed_metric_halves_identity():
    out = deformed_group_metric(su2_metric(), 1.0)
    assert np.allclose(out.tensor, 0.5 * np.eye(3))


def test_deformed_metric_eigenvalue_map():
    rng = np.random.default_rng(83)
    for _ in range(5):
        lam = rng.uniform(0.3, 3.0, 3)
        O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        m = su2_metric(O @ np.diag(lam) @ O.T)
        t = float(rng.uniform(0.1, 20.0))
        got = np.sort(np.linalg.eigvalsh(deformed_group_metric(m, t).tensor))
        assert np.allclose(got, np.sort(lam / (1 + t * lam)), atol=1e-12)


# ---------------------------------------------------------------------------
# refined sampling oracle agreement (library max vs independent maximization)
# ---------------------------------------------------------------------------


def test_twist_matches_refined_sampling():
    rng = np.random.default_rng(89)
    for _ in range(10):
        orbit = random_su2_orbit(rng)
        P = orbit.algebra.tensor
        U, V = rng.normal(size=3), rng.normal(size=3)
        t = float(rng.uniform(0.05, 30.0))
        x = TangentSplit(np.zeros(0), U)
        y = TangentSplit(np.zeros(0), V)
        det = twist_term(orbit, t, x, y)
        alg = orbit.algebra
        lvec = (0.5 * (alg.bracket(P @ U, V) + alg.bracket(U, P @ V) - P @ alg.bracket(U, V))
                + 0.5 * t * alg.bracket(P @ U, P @ V))
        raw, refined = ratio_max_sampled_refined(lvec, P, t, samples=20_000, rng=rng)
        assert det >= raw * (1 - 1e-12)
        assert det == pytest.approx(refined, rel=1e-9)


def test_twist_uses_supplied_dw_tables():
    # normal-normal pair with a supplied one-form derivative along the orbit
    # algebra: z_t = 3t a.(I + tP)^{-1}.a for the table coefficient vector a
    P = np.diag([0.5, 1.0, 2.0])
    dw = np.zeros((3, 2, 2))
    dw[0, 0, 1], dw[0, 1, 0] = 0.7, -0.7
    dw[2, 0, 1], dw[2, 1, 0] = -0.4, 0.4
    orbit = OrbitData(algebra=su2_metric(P), normal_dim=2,
                      normal_sectionals=np.zeros((2, 2)),
                      mixed_sectionals=np.zeros((2, 3)), dw_normal=dw)
    x = TangentSplit(np.array([1.0, 0.0]), np.zeros(3))
    y = TangentSplit(np.array([0.0, 1.0]), np.zeros(3))
    for t in (0.3, 2.0, 50.0):
        a = np.array([0.7, 0.0, -0.4])
        expected = 3.0 * t * float(a @ np.linalg.solve(np.eye(3) + t * P, a))
        assert twist_term(orbit, t, x, y) == pytest.approx(expected, rel=1e-12)
        assert twist_term(orbit, t, y, x) == pytest.approx(expected, rel=1e-12)


def test_twist_mixed_arguments_symmetric():
    rng = np.random.default_rng(97)
    orbit, iso = singular_point(alpha=0.6, lam=[0.7, 1.0, 1.5])
    for _ in range(5):
        x = TangentSplit(rng.normal(size=2), rng.normal(size=3))
        y = TangentSplit(rng.normal(size=2), rng.normal(size=3))
        t = float(rng.uniform(0.1, 30.0))
        zxy = twist_term(orbit, t, x, y, iso)
        zyx = twist_term(orbit, t, y, x, iso)
        assert zxy >= 0
        assert zxy == pytest.approx(zyx, rel=1e-11, abs=1e-14)


def test_scal_cheeger_positivity_onset_reported_for_su2_family():
    # every su(2) instance develops positive deformed curvature at finite time
    rng = np.random.default_rng(101)
    instances = [su2_metric(np.diag([6.0, 1.0, 1.0])),
                 su2_metric(np.diag([5.0, 2.0, 0.5]))]
    for _ in range(3):
        lam = rng.uniform(0.3, 6.0, 3)
        O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        instances.append(su2_metric(O @ np.diag(lam) @ O.T))
    ts = np.logspace(-2, 4, 49)
    for m in instances:
        orbit = OrbitData(algebra=m)
        values = np.array([scal_cheeger(orbit, None, float(t)) for t in ts])
        positive = np.nonzero(values > 0)[0]
        assert positive.size > 0
        onset = ts[positive[0]]
        assert np.isfinite(onset)
        assert np.all(values[positive[0]:] > 0)


def test_orbit_data_validation_errors():
    with pytest.raises(ValueError):
        OrbitData(algebra=su2_metric(), normal_dim=2,
                  normal_sectionals=np.ones((2, 2)))  # nonzero diagonal
    with pytest.raises(ValueError):
        OrbitData(algebra=su2_metric(), normal_dim=2,
                  mixed_sectionals=np.zeros((3, 3)))  # wrong shape
    bad_dw = np.zeros((3, 2, 2))
    bad_dw[0, 0, 1] = 1.0  # not antisymmetric
    with pytest.raises(ValueError):
        OrbitData(algebra=su2_metric(), normal_dim=2, dw_normal=bad_dw)
    with pytest.raises(ValueError):
        IsotropyData(isotropy_dim=1, rho_maps=np.ones((2, 2, 1)))  # not skew


def test_scal_cheeger_rejects_mismatched_isotropy():
    orbit = OrbitData(algebra=su2_metric(), normal_dim=3,
                      normal_sectionals=np.zeros((3, 3)),
                      mixed_sectionals=np.zeros((3, 3)))
    rho = np.zeros((2, 2, 1))
    rho[0, :, 0] = [0.0, 1.0]
    rho[1, :, 0] = [-1.0, 0.0]
    iso = IsotropyData(isotropy_dim=1, rho_maps=rho)
    with pytest.raises(ValueError, match="isotropy data normal dimension mismatch"):
        scal_cheeger(orbit, iso, 1.0)


@pytest.mark.parametrize("orbit_dim,iso_dim", [(3, 2), (2, 3)])
def test_isotropy_term_and_pinching_limit_reject_mismatched_isotropy(orbit_dim, iso_dim):
    # isotropy_term and pinching_limit used to fail inside numpy with a bare
    # matmul core-dimension ValueError
    rho = np.zeros((iso_dim, iso_dim, 1))
    rho[0, 1, 0], rho[1, 0, 0] = 1.0, -1.0
    iso = IsotropyData(isotropy_dim=1, rho_maps=rho)
    orbit = OrbitData(algebra=su2_metric(), normal_dim=orbit_dim)
    with pytest.raises(ValueError, match="isotropy data normal dimension mismatch"):
        isotropy_term(iso, orbit_dim)
    with pytest.raises(ValueError, match="isotropy data normal dimension mismatch"):
        pinching_limit([(OrbitData(algebra=su2_metric()), None), (orbit, iso)])
    with pytest.raises(ValueError, match="isotropy data normal dimension mismatch"):
        scal_cheeger(orbit, iso, 1.0)
    # the matching dimension and the default still evaluate
    assert isotropy_term(iso, iso_dim) == isotropy_term(iso) > 0.0


# ---------------------------------------------------------------------------
# the symmetry the unordered pair sums rest on
# ---------------------------------------------------------------------------

STRUCTURES = {"su2": su2_structure, "su2+line": su2_plus_line_structure,
              "abelian": lambda: np.zeros((3, 3, 3))}


def _random_orbit(kind, rng, normal_dim, iso_dim):
    """A random SPD tensor on one of the STRUCTURES, with random normal,
    mixed and dw tables and skew isotropy data on ``normal_dim`` normals."""
    c = STRUCTURES[kind]()
    d, m = c.shape[0], normal_dim
    algebra = LeftInvariantMetric(c, _random_tensor(rng, d))
    if not m:
        return OrbitData(algebra=algebra), None
    normal = rng.normal(size=(m, m))
    normal += normal.T
    np.fill_diagonal(normal, 0.0)
    dw = rng.normal(size=(d, m, m))
    orbit = OrbitData(algebra=algebra, normal_dim=m, normal_sectionals=normal,
                      mixed_sectionals=rng.normal(size=(m, d)),
                      dw_normal=dw - np.swapaxes(dw, 1, 2))
    if not iso_dim:
        return orbit, None
    rho = rng.normal(size=(m, m, iso_dim))
    return orbit, IsotropyData(isotropy_dim=iso_dim, rho_maps=rho - np.swapaxes(rho, 0, 1))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(STRUCTURES)), seed=st.integers(0, 2**32 - 1),
       normal_dim=st.integers(0, 3), iso_dim=st.integers(0, 2),
       times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6))
def test_pair_summands_are_symmetric(kind, seed, normal_dim, iso_dim, times):
    rng = np.random.default_rng(seed)
    orbit, iso = _random_orbit(kind, rng, normal_dim, iso_dim)
    alg, ts = orbit.algebra, np.array(times)
    X, Y = rng.normal(size=(2, alg.dim))
    # relative to |X|^2 |Y|^2 lam_max^2 / lam_min, the size of the Koszul
    # terms: a small sectional curvature is a difference of such terms
    lam = np.linalg.eigvalsh(alg.tensor)
    scale = (X @ X) * (Y @ Y) * lam[-1] ** 2 / lam[0]
    xy, yx = sectional_left_invariant(alg, X, Y), sectional_left_invariant(alg, Y, X)
    assert abs(xy - yx) <= 1e-13 * max(abs(xy), scale)

    m = orbit.normal_dim
    x = TangentSplit(rng.normal(size=m), X)
    y = TangentSplit(rng.normal(size=m), Y)
    np.testing.assert_allclose(twist_term(orbit, ts, x, y, iso), twist_term(orbit, ts, y, x, iso),
                               rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(STRUCTURES)), seed=st.integers(0, 2**32 - 1),
       normal_dim=st.integers(0, 3), iso_dim=st.integers(0, 2),
       times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6))
def test_scal_cheeger_equals_the_ordered_pair_sum(kind, seed, normal_dim, iso_dim, times):
    orbit, iso = _random_orbit(kind, np.random.default_rng(seed), normal_dim, iso_dim)
    ts = np.array(times)
    want = np.array([scal_cheeger_ordered_pairs(orbit, iso, t) for t in times])
    got = scal_cheeger(orbit, iso, ts)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(STRUCTURES)), seed=st.integers(0, 2**32 - 1),
       times=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=6))
def test_scal_cheeger_on_a_group_is_the_deformed_group_metric(kind, seed, times):
    orbit, _ = _random_orbit(kind, np.random.default_rng(seed), 0, 0)
    want = np.array([scal_left_invariant(deformed_group_metric(orbit.algebra, t)) for t in times])
    got = scal_cheeger(orbit, None, np.array(times))
    assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(np.abs(want), 1.0))
