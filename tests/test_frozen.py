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


# (constructor, inputs that replace the valid ones, the field the error names):
# one wrong-rank or wrong-length input per array field
WRONG_SHAPES = [
    ("QuotientMesh", dict(nodes=1.0), "nodes"),
    ("QuotientMesh", dict(weights=np.ones(17)), "weights"),
    ("WarpedProductMetric", dict(warping=np.full(8, 2.0)), "warping"),
    ("DiagonalInvariantMetric", dict(radial=np.ones(15)), "radial"),
    ("DiagonalInvariantMetric", dict(fiber=np.ones((16, 1))), "fiber"),
    ("LeftInvariantMetric", dict(structure=1.0), "structure"),
    ("LeftInvariantMetric", dict(structure=np.zeros((3, 3, 2))), "structure"),
    ("LeftInvariantMetric", dict(tensor=np.eye(2)), "tensor"),
    ("TangentSplit", dict(normal=np.eye(2)), "normal"),
    ("TangentSplit", dict(orbit=3.0), "orbit"),
    ("IsotropyData", dict(rho_maps=np.zeros((2, 2))), "rho_maps"),
    ("IsotropyData", dict(rho_maps=np.zeros((2, 3, 1))), "rho_maps"),
    ("OrbitData", dict(normal_sectionals=np.zeros((3, 3))), "normal_sectionals"),
    ("OrbitData", dict(mixed_sectionals=np.ones((3, 2))), "mixed_sectionals"),
    ("OrbitData", dict(dw_normal=np.zeros((2, 2, 2))), "dw_normal"),
    ("SubmersionPointData", dict(K_base=np.zeros(2)), "K_base"),
    ("SubmersionPointData", dict(K_tot_hh=np.zeros((3, 3))), "K_tot_hh"),
    ("SubmersionPointData", dict(K_mixed=np.ones((2, 3))), "K_mixed"),
    ("MetricPerturbation", dict(a=1.0), "a"),
    ("MetricPerturbation", dict(b=[4.0, 5.0]), "b"),
    ("Diffeo1D", dict(break_x=[], break_y=[]), "break_x"),
    ("Diffeo1D", dict(break_x=[0.0], break_y=[1.0]), "break_x"),
    ("Diffeo1D", dict(break_x=[0.0, 8.0, 16.0], break_y=[0.0, 16.0]), "break_y"),
]


@pytest.mark.parametrize("name, wrong, field", WRONG_SHAPES,
                         ids=[f"{name}.{'+'.join(wrong)}" for name, wrong, _ in WRONG_SHAPES])
def test_wrong_shapes_raise_value_errors_naming_the_field(name, wrong, field):
    cls, fixed, arrays = CONSTRUCTORS[name]
    with pytest.raises(ValueError, match=f"^{field} "):
        cls(**fixed, **{**arrays, **wrong})


def test_every_array_field_has_a_wrong_shape_case():
    covered = {(name, field) for name, wrong, _ in WRONG_SHAPES for field in wrong}
    assert covered == {(name, field) for name, (_, _, arrays) in CONSTRUCTORS.items()
                       for field in arrays}


def test_shape_message_names_expected_and_actual_shape():
    mesh = circle_mesh(64, 2 * np.pi, 1.0)
    with pytest.raises(ValueError, match=r"^warping must have shape \(64,\), got \(8,\)$"):
        WarpedProductMetric(mesh, 3, 6.0, np.ones(8))
    with pytest.raises(ValueError, match=r"^nodes must have shape \(None,\), got \(\)$"):
        QuotientMesh("circle", 1.0, 1.0, np.ones(16), 16.0)
