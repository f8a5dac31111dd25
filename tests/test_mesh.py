"""Weighted quotient calculus: quadrature, derivatives, divergence-form Laplacian."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from curvlab import (CIRCLE, INTERVAL, QuotientMesh, WarpedProductMetric, build_mesh, circle_mesh,
                     get_preset, scal_warped)
from curvlab.mesh import uniform_nodes
from curvlab import mesh as mesh_module
from curvlab.models import YamabeConstants


def test_build_circle_constant_weight():
    mesh = build_mesh(CIRCLE, 64, 2 * np.pi, lambda r: np.ones_like(r))
    assert mesh.h == pytest.approx(2 * np.pi / 64)
    assert mesh.node_count == 64
    assert np.all(mesh.weights == 1.0)
    # duplicate endpoint omitted
    assert mesh.nodes[-1] < 2 * np.pi


def test_build_interval_sine_weight_vanishes_at_endpoints():
    mesh = build_mesh(INTERVAL, 33, np.pi, np.sin)
    assert mesh.weights[0] == 0.0
    assert mesh.weights[-1] == 0.0
    assert np.all(mesh.weights[1:-1] > 0)


def test_build_rejects_negative_weight():
    with pytest.raises(ValueError):
        build_mesh(CIRCLE, 64, 2 * np.pi, lambda r: -np.ones_like(r))
    # the mesh validates the sampled weights: an interval may vanish only at its ends
    with pytest.raises(ValueError, match="interior weights must be strictly positive"):
        build_mesh(INTERVAL, 33, 2 * np.pi, np.sin)
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        build_mesh(INTERVAL, 33, 1.0, lambda r: r - 1e-3)


def test_build_rejects_small_meshes():
    with pytest.raises(ValueError):
        build_mesh(CIRCLE, 8, 2 * np.pi, lambda r: np.ones_like(r))


@pytest.mark.parametrize("topology", [CIRCLE, INTERVAL])
@pytest.mark.parametrize("length", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_build_rejects_a_nonfinite_or_nonpositive_length(topology, length):
    # a NaN or infinite length used to build a mesh of NaN nodes
    with pytest.raises(ValueError, match="length must be finite and positive"):
        build_mesh(topology, 32, length, lambda r: 1.0)


@pytest.mark.parametrize("topology", [CIRCLE, INTERVAL])
@pytest.mark.parametrize("length", [1e-300, 1e-160])
def test_build_rejects_a_length_too_small_for_the_stencils(topology, length):
    # h * h underflowed to 0 (or 1/h^2 overflowed) and the curvature came out NaN
    with pytest.raises(ValueError, match="too small for the stencils"):
        build_mesh(topology, 32, length, lambda r: 1.0)
    assert np.isfinite(1.0 / uniform_nodes(topology, 32, 1e-150)[0] ** 2)


@pytest.mark.parametrize("topology", [CIRCLE, INTERVAL])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_nonfinite_weights(topology, bad):
    for j in (0, 5, -1):
        w = np.ones(32)
        w[j] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            build_mesh(topology, 32, 2.0, w)


def test_build_broadcasts_a_scalar_profile():
    for topology, n in ((CIRCLE, 32), (INTERVAL, 17)):
        mesh = build_mesh(topology, n, 2.0, lambda r: 1.5)
        assert mesh.weights.tobytes() == np.full(n, 1.5).tobytes()


@pytest.mark.parametrize("weight", [lambda r: np.ones(len(r) + 1),
                                    lambda r: np.ones((len(r), 1)), np.ones(31)],
                         ids=["longer", "column", "array"])
def test_build_rejects_a_profile_of_another_shape(weight):
    with pytest.raises(ValueError, match="profile has shape"):
        build_mesh(CIRCLE, 32, 2.0, weight)


@pytest.mark.parametrize("topology", [CIRCLE, INTERVAL])
def test_mesh_rejects_nodes_or_spacing_of_another_mesh(topology):
    # every stencil assumes the spacing h: 32 random sorted nodes with h = 0.1
    # and length 6.28 were accepted, and integrate(1) then read 3.2
    h, nodes = uniform_nodes(topology, 32, 6.28)
    shifted = nodes.copy()
    shifted[5] = np.nextafter(shifted[5], np.inf)
    wrong = [dict(nodes=np.sort(np.random.default_rng(0).uniform(0.0, 6.28, 32)), h=0.1),
             dict(h=0.1), dict(h=np.nextafter(h, 0.0)), dict(length=3.14), dict(nodes=shifted)]
    for fields in wrong:
        with pytest.raises(ValueError, match="^h and nodes must be those of the uniform"):
            QuotientMesh(**{**dict(topology=topology, nodes=nodes, h=h, weights=np.ones(32),
                                   length=6.28), **fields})
    mesh = QuotientMesh(topology, nodes, h, np.ones(32), 6.28)
    assert mesh.integrate(np.ones(32)) == pytest.approx(6.28)


def test_integrate_total_measure():
    mesh = circle_mesh(64, 2 * np.pi)
    assert mesh.integrate(np.ones(64)) == pytest.approx(2 * np.pi, rel=1e-14)


def test_integrate_odd_function_cancels():
    mesh = circle_mesh(64, 2 * np.pi)
    assert abs(mesh.integrate(np.sin(mesh.nodes))) < 1e-12


def test_integrate_interval_sine_weight_converges_to_two():
    errs = []
    for n in (65, 129, 257):
        mesh = build_mesh(INTERVAL, n, np.pi, np.sin)
        errs.append(abs(mesh.integrate(np.ones(n)) - 2.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.7)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.7)


def test_integrate_length_mismatch():
    mesh = circle_mesh(64, 2 * np.pi)
    with pytest.raises(ValueError):
        mesh.integrate(np.ones(63))


def test_lp_norm_constant():
    mesh = circle_mesh(64, 2 * np.pi)
    assert mesh.lp_norm(np.ones(64), 2) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)


def test_lp_norm_homogeneity():
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.3 * np.cos(r))
    vol = mesh.total_volume()
    for c in (-2.5, 0.7):
        got = mesh.lp_norm(np.full(64, c), 3)
        assert got == pytest.approx(abs(c) * vol ** (1 / 3), rel=1e-13)


def test_lp_norm_rejects_p_below_one():
    mesh = circle_mesh(64, 2 * np.pi)
    with pytest.raises(ValueError):
        mesh.lp_norm(np.ones(64), 0.5)
    with pytest.raises(ValueError, match="p must be >= 1"):  # it used to return NaN
        mesh.lp_norm(np.ones(64), np.nan)


def test_lp_norm_rejects_an_infinite_exponent():
    # it used to return 1.0 ** (1 / inf) = 1.0, whatever the function
    mesh = circle_mesh(64, 2 * np.pi)
    with pytest.raises(ValueError, match="^p must be >= 1 and finite, got inf$"):
        mesh.lp_norm(np.full(64, 3.0), np.inf)


def test_lp_norm_triangle_inequality():
    rng = np.random.default_rng(3)
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.5 * np.sin(r) ** 2)
    for _ in range(50):
        u = rng.normal(size=64)
        v = rng.normal(size=64)
        for p in (1.0, 2.0, 4.0):
            assert mesh.lp_norm(u + v, p) <= mesh.lp_norm(u, p) + mesh.lp_norm(v, p) + 1e-12


def test_holder_inequality_volume_factor():
    # ||u||_2 <= vol^(1/2 - 1/2*) ||u||_{2*}; never violated on random samples
    consts = YamabeConstants.for_dimension(4)
    rng = np.random.default_rng(11)
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.4 * np.cos(2 * r) ** 2)
    vol = mesh.total_volume()
    factor = vol ** (0.5 - 1.0 / consts.two_star)
    for _ in range(1000):
        u = rng.normal(size=64)
        assert mesh.lp_norm(u, 2) <= factor * mesh.lp_norm(u, consts.two_star) * (1 + 1e-12)


def test_derivative_constant_and_linear():
    mesh = circle_mesh(64, 2 * np.pi)
    assert np.max(np.abs(mesh.derivative(np.full(64, 3.7)))) == 0.0
    interval = build_mesh(INTERVAL, 33, 1.0, lambda r: np.ones_like(r))
    d = interval.derivative(interval.nodes)
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_derivative_second_order_on_sine():
    errs = []
    for n in (64, 128, 256):
        mesh = circle_mesh(n, 2 * np.pi)
        errs.append(np.max(np.abs(mesh.derivative(np.sin(mesh.nodes)) - np.cos(mesh.nodes))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_laplacian_kills_constants_exactly():
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.5 * np.sin(r) ** 2)
    assert np.max(np.abs(mesh.laplacian(np.full(64, 2.2)))) < 1e-14
    interval = build_mesh(INTERVAL, 33, np.pi, np.sin)
    assert np.max(np.abs(interval.laplacian(np.full(33, -1.3)))) < 1e-13


def test_laplacian_is_periodic_second_difference_for_unit_weight():
    mesh = circle_mesh(32, 2 * np.pi)
    rng = np.random.default_rng(5)
    u = rng.normal(size=32)
    expected = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / mesh.h**2
    assert np.allclose(mesh.laplacian(u), expected, atol=1e-12)


def test_laplacian_second_order_on_sine():
    errs = []
    for n in (64, 128, 256):
        mesh = circle_mesh(n, 2 * np.pi)
        errs.append(np.max(np.abs(mesh.laplacian(np.sin(mesh.nodes)) + np.sin(mesh.nodes))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


def test_divergence_theorem_on_circle():
    rng = np.random.default_rng(7)
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.2 + 0.5 * np.sin(r))
    for _ in range(20):
        u = rng.normal(size=64)
        assert abs(mesh.integrate(mesh.laplacian(u))) < 1e-10


def test_summation_by_parts_second_order():
    # |<lap u, v>_w + <u', v'>_w| = O(h^2) for trigonometric samples
    rng = np.random.default_rng(13)
    gaps = []
    for n in (64, 128, 256):
        mesh = circle_mesh(n, 2 * np.pi, lambda r: 1.0 + 0.3 * np.cos(r))
        r = mesh.nodes
        u = np.sin(2 * r) + 0.5 * np.cos(3 * r)
        v = np.cos(r) - 0.2 * np.sin(2 * r)
        gap = abs(mesh.inner(mesh.laplacian(u), v) + mesh.inner(mesh.derivative(u), mesh.derivative(v)))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=1.5)
    assert gaps[2] < gaps[0]


def test_stiffness_matches_laplacian_exactly():
    mesh = circle_mesh(48, 2 * np.pi, lambda r: 1.0 + 0.4 * np.sin(r) ** 2)
    rng = np.random.default_rng(17)
    u = rng.normal(size=48)
    v = rng.normal(size=48)
    lhs = mesh.inner(mesh.laplacian(u), v)
    rhs = -mesh.dirichlet_form(u, v)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    S = mesh.stiffness_matrix()
    assert v @ S @ u == pytest.approx(mesh.dirichlet_form(u, v), rel=1e-12)


def test_integrate_linear_and_monotone():
    mesh = circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.2 * np.sin(r))
    rng = np.random.default_rng(19)
    u = rng.normal(size=64)
    v = rng.normal(size=64)
    assert mesh.integrate(2.0 * u + 3.0 * v) == pytest.approx(
        2.0 * mesh.integrate(u) + 3.0 * mesh.integrate(v), rel=1e-12, abs=1e-12)
    assert mesh.integrate(np.abs(u)) >= mesh.integrate(-np.abs(u))


def test_interval_laplacian_with_singular_weight_spherical_harmonic():
    # weight sin(r) on [0, pi] is the orbit volume of a 2-sphere quotient;
    # the first harmonic cos(r) satisfies (1/w)(w u')' = -2 u including at
    # the vanishing-weight endpoints under the zero-flux closure
    errs = []
    for n in (33, 65, 129):
        mesh = build_mesh(INTERVAL, n, np.pi, np.sin)
        u = np.cos(mesh.nodes)
        errs.append(np.max(np.abs(mesh.laplacian(u) + 2.0 * u)))
    assert errs[0] / errs[1] > 2.0
    assert errs[1] / errs[2] > 2.0
    assert errs[-1] < 5e-3


# ---------------------------------------------------------------------------
# sparse operator matrices
# ---------------------------------------------------------------------------

OPERATOR_MESHES = {
    "circle-even": lambda: circle_mesh(16, 2 * np.pi, lambda r: 1.0 + 0.3 * np.sin(r)),
    "circle-odd": lambda: circle_mesh(33, 2 * np.pi, lambda r: 1.0 + 0.3 * np.sin(r)),
    "interval-sin-even": lambda: build_mesh(INTERVAL, 16, np.pi, np.sin),
    "interval-sin-odd": lambda: build_mesh(INTERVAL, 33, np.pi, np.sin),
    "interval-positive-odd": lambda: build_mesh(INTERVAL, 17, 1.0, lambda r: 1.0 + r**2),
}


def _assert_matches_stencils(mesh, rng):
    """The stencil methods against the roll-and-slice oracles exactly; the
    matrices to rounding."""
    n = mesh.node_count
    d1, d2, laplacian, stiffness = matrices = (mesh.d1_matrix(), mesh.d2_matrix(),
                                               mesh.laplacian_matrix(), mesh.stiffness_matrix())
    for matrix in matrices:
        assert isinstance(matrix, sp.csr_array)
        assert np.max(np.diff(matrix.indptr)) <= 5
    for _ in range(3):
        u, v = rng.normal(size=n), rng.normal(size=n)
        du = oracles.derivative_stencil(mesh, u)
        d2u = oracles.second_derivative_stencil(mesh, u)
        lap = oracles.laplacian_flux(mesh, u)
        form = oracles.dirichlet_form_sum(mesh, u, v)
        assert np.array_equal(mesh.derivative(u), du)
        assert np.array_equal(mesh.second_derivative(u), d2u)
        assert np.array_equal(mesh.laplacian(u), lap)
        assert mesh.dirichlet_form(u, v) == form
        for matrix, ref in ((d1, du), (d2, d2u), (laplacian, lap)):
            assert np.max(np.abs(matrix @ u - ref)) <= 1e-12 * np.max(np.abs(ref))
        # Cauchy-Schwarz bounds the pairing by the two energies
        energies = oracles.dirichlet_form_sum(mesh, u, u) * oracles.dirichlet_form_sum(mesh, v, v)
        assert abs(v @ stiffness @ u - form) <= 1e-12 * np.sqrt(energies)


@pytest.mark.parametrize("make", OPERATOR_MESHES.values(), ids=OPERATOR_MESHES.keys())
def test_sparse_operators_match_stencils(make):
    _assert_matches_stencils(make(), np.random.default_rng(23))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 300), kind=st.sampled_from(["circle", "interval", "interval-sin"]),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_operators_match_stencils_property(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "interval-sin":
        mesh = build_mesh(INTERVAL, n, np.pi, np.sin)
    else:
        topology = CIRCLE if kind == "circle" else INTERVAL
        mesh = build_mesh(topology, n, rng.uniform(0.5, 10.0), rng.uniform(0.05, 20.0, size=n))
    _assert_matches_stencils(mesh, rng)


def test_stencils_difference_before_scaling():
    # Applying the scaled matrix L @ c leaves rounding of order 1e-13 on a
    # constant c; differencing first gives exact zeros.
    rng = np.random.default_rng(29)
    meshes = ((circle_mesh(64, 2 * np.pi, lambda r: 1.0 + 0.5 * np.sin(r) ** 2), 2.2),
              (build_mesh(INTERVAL, 33, np.pi, np.sin), -1.3))
    for mesh, c in meshes:
        const = np.full(mesh.node_count, c)
        v = rng.normal(size=mesh.node_count)
        assert np.all(mesh.laplacian(const) == 0.0)
        assert mesh.dirichlet_form(const, v) == 0.0
        assert mesh.dirichlet_form(v, const) == 0.0


@pytest.mark.parametrize("make", OPERATOR_MESHES.values(), ids=OPERATOR_MESHES.keys())
def test_laplacian_matrix_is_scaled_stiffness(make):
    # -diag(vol) L == S, with vol the quadrature masses except at a vanishing
    # interval endpoint, where the half cell uses the face-average weight
    mesh = make()
    w, h = mesh.weights, mesh.h
    vol = mesh.mass_vector()
    if mesh.topology == INTERVAL:
        for j, face in ((0, 0.5 * (w[0] + w[1])), (-1, 0.5 * (w[-1] + w[-2]))):
            if w[j] == 0:
                vol[j] = 0.25 * h * face
    S = mesh.stiffness_matrix()
    assert np.max(np.diff(S.indptr)) <= 5
    gap = -(vol[:, None] * mesh.laplacian_matrix().toarray()) - S.toarray()
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(S.toarray()))


def test_operator_matrices_are_cached_and_read_only():
    mesh = circle_mesh(16, 2 * np.pi)
    for method in (mesh.d1_matrix, mesh.d2_matrix, mesh.stiffness_matrix, mesh.laplacian_matrix):
        assert method() is method()
        with pytest.raises(ValueError):
            method().data[0] = 1.0


def test_meshes_of_one_topology_and_size_share_read_only_stencils(monkeypatch):
    # the integer stencils depend on the topology and N only: a metric, its
    # homothety and its escape-bumped warping differ in length or weights but
    # share one stencil table, and their curvature builds no sparse matrix
    metric = get_preset("bumpy", n=64)
    mesh = metric.mesh
    bump = 1.0 + 1e-3 * np.sin(2 * np.pi * mesh.nodes / mesh.length)
    bumped = WarpedProductMetric.from_profile(64, mesh.length, metric.fiber_dim,
                                              metric.fiber_scal, metric.warping * bump)
    metrics = (metric, metric.scaled(2.5), bumped)
    assert metrics[1].mesh.length != mesh.length
    assert not np.array_equal(bumped.mesh.weights, mesh.weights)
    built = []
    monkeypatch.setattr(mesh_module, "_csr", lambda *args: built.append(args))
    for m in metrics:
        assert np.all(np.isfinite(scal_warped(m)))
    assert built == []
    stencils = mesh._stencils
    assert all(m.mesh._stencils is stencils for m in metrics)
    assert circle_mesh(65, mesh.length)._stencils is not stencils
    assert build_mesh(INTERVAL, 64, mesh.length, mesh.weights)._stencils is not stencils
    for stencil in stencils:
        for arr in (stencil.cols, stencil.coefs):
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 0]
