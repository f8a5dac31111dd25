"""Every frozen curvlab object keeps a read-only float64 copy of its array inputs."""

import numpy as np
import pytest

from curvlab import (DiagonalInvariantMetric, Diffeo1D, IsotropyData,
                     LeftInvariantMetric, MetricPerturbation, OrbitData,
                     QuotientMesh, SubmersionPointData, TangentSplit,
                     WarpedProductMetric, circle_mesh, scal_warped, su2_metric,
                     su2_structure)


def _skew_pair(value):
    return np.array([[0.0, value], [-value, 0.0]])


# (constructor, scalar and object arguments, integer-valued array arguments)
CONSTRUCTORS = {
    "QuotientMesh": (QuotientMesh, dict(topology="circle", h=1.0, length=16.0),
                     dict(nodes=np.arange(16.0), weights=np.full(16, 2.0))),
    "WarpedProductMetric": (WarpedProductMetric,
                            dict(mesh=circle_mesh(16, 2 * np.pi, 8.0), fiber_dim=3,
                                 fiber_scal=6.0),
                            dict(warping=np.full(16, 2.0))),
    "DiagonalInvariantMetric": (DiagonalInvariantMetric,
                                dict(mesh=circle_mesh(16, 2 * np.pi), fiber_dim=3,
                                     fiber_scal=6.0),
                                dict(radial=np.ones(16), fiber=np.full(16, 4.0))),
    "LeftInvariantMetric": (LeftInvariantMetric, {},
                            dict(structure=su2_structure(), tensor=np.diag([1.0, 2.0, 3.0]))),
    "TangentSplit": (TangentSplit, {},
                     dict(normal=np.array([1.0, 0.0]), orbit=np.array([0.0, 2.0, 3.0]))),
    "IsotropyData": (IsotropyData, dict(isotropy_dim=1),
                     dict(rho_maps=_skew_pair(1.0)[:, :, None])),
    "OrbitData": (OrbitData, dict(algebra=su2_metric(), normal_dim=2),
                  dict(normal_sectionals=np.abs(_skew_pair(1.0)), mixed_sectionals=np.ones((2, 3)),
                       dw_normal=np.stack([_skew_pair(1.0), _skew_pair(2.0), _skew_pair(0.0)]))),
    "SubmersionPointData": (SubmersionPointData, dict(base_dim=2, fiber_dim=2, fiber_scal=2.0),
                            dict(K_base=np.abs(_skew_pair(1.0)), K_tot_hh=np.abs(_skew_pair(2.0)),
                                 K_mixed=np.ones((2, 2)))),
    "MetricPerturbation": (MetricPerturbation, {},
                           dict(a=np.array([1.0, -2.0, 3.0]), b=np.array([4.0, 5.0, -6.0]))),
    "Diffeo1D": (Diffeo1D, dict(mesh=circle_mesh(16, 16.0)),
                 dict(break_x=np.array([0.0, 4.0, 16.0]), break_y=np.array([1.0, 3.0, 17.0]))),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("convert", [np.ndarray.tolist, lambda a: a.astype(int), np.copy],
                         ids=["list", "int", "float"])
def test_array_inputs_are_stored_as_read_only_float_copies(name, convert):
    cls, fixed, arrays = CONSTRUCTORS[name]
    inputs = {field: convert(value) for field, value in arrays.items()}
    obj = cls(**fixed, **inputs)
    for field, value in arrays.items():
        stored = getattr(obj, field)
        assert stored.dtype == np.float64 and not stored.flags.writeable, field
        np.testing.assert_array_equal(stored, value)
        given = inputs[field]
        if isinstance(given, np.ndarray):
            assert given.flags.writeable and not np.shares_memory(given, stored), field


def test_list_inputs_compute_like_arrays():
    metric = LeftInvariantMetric(su2_structure().tolist(), np.eye(3).tolist())
    assert metric.dim == 3
    mesh = circle_mesh(32, 2 * np.pi, 1.0)
    scal = scal_warped(WarpedProductMetric(mesh, 3, 6.0, [1.0] * 32))
    np.testing.assert_array_equal(scal, np.full(32, 6.0))
    with pytest.raises(ValueError, match="^need at least 16 nodes, got 8$"):
        QuotientMesh("circle", list(range(8)), 1.0, [1.0] * 8, 8.0)
