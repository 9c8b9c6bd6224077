import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastic_lens.elastic_sim import receiver_nodes
from elastic_lens.errors import (ConfigurationError, DomainError, ModelError,
                                 PreconditionError)
from elastic_lens.model_core import (EDGES, BoundingBox, BoxDomain,
                                     ConstantField, DepthField, DerivedSpeed,
                                     DiskDomain, ElasticMaterial,
                                     GridField, Grid2D, LinearField,
                                     RadialField, field_from_spec, load_model,
                                     wave_speeds)
from elastic_lens.ray_tracer import (RayStatus, entry_at, fan_angles,
                                     scattering_relation, scattering_relations)


def test_constant_field_value_and_grad():
    f = ConstantField(2.5, dim=2)
    c, g = f.value_and_grad((0.3, -0.1))
    assert c == 2.5
    assert np.allclose(g, 0.0)


def test_linear_field_gradient_exact():
    f = LinearField(1.0, (0.1, -0.2), bounds=BoundingBox.cube(2.0, 2))
    c, g = f.value_and_grad((0.4, 0.2))
    assert math.isclose(c, 1.0 + 0.1 * 0.4 - 0.2 * 0.2)
    assert np.allclose(g, (0.1, -0.2))


def test_radial_field_linear_profile_exact():
    # natural cubic spline through collinear points stays linear
    f = RadialField(profile=[(0.0, 2.0), (0.5, 1.5), (1.0, 1.0), (1.2, 0.8)])
    for r in (0.1, 0.33, 0.77, 1.05):
        c, g = f.value_and_grad((r, 0.0))
        assert math.isclose(c, 2.0 - r, rel_tol=1e-12)
        assert math.isclose(g[0], -1.0, rel_tol=1e-9)


def test_out_of_bounds_message_shows_plain_numbers():
    grid = GridField(Grid2D((0.0, 0.0), 0.1, 11, 11), np.ones((11, 11)))
    depth = DepthField([[0, 1], [1, 2]])
    for f in (ConstantField(1.0, dim=2), grid, depth):
        with pytest.raises(DomainError, match=r"point \[3\.0, 0\.5\] outside") as err:
            f.eval(np.array([[0.0, 0.0], [3.0, 0.5]]))
        assert "np.float64" not in str(err.value)
    box, inside = BoxDomain((0.0, 0.0), (1.0, 1.0)), np.array([0.25, 0.5])
    with pytest.raises(PreconditionError, match=r"point \(0\.25, 0\.5\) not on the boundary"):
        box.normal(inside)
    with pytest.raises(PreconditionError, match=r"point \(0\.25, 0\.5\) not on the box"):
        box.boundary_param(inside)
    with pytest.raises(ConfigurationError, match=r"receiver \(1\.75, 1\.0\) is not"):
        receiver_nodes(box, Grid2D((0.0, 0.0), 0.1, 11, 11),
                       [box.edge_point("top", 1.75)])


def test_radial_field_requires_increasing_radii():
    with pytest.raises(ModelError):
        RadialField(profile=[(0.0, 1.0), (0.5, 1.0), (0.5, 1.0)])


def test_radial_field_rejects_nonpositive_speed():
    with pytest.raises(ModelError, match="non-positive"):
        RadialField(profile=[(0.0, 1.0), (1.0, -0.5)])


def test_depth_field_gradient_along_last_axis():
    f = DepthField(profile=[(0.0, 1.0), (1.0, 2.0)], dim=2)
    c, g = f.value_and_grad((0.3, 0.5))
    assert math.isclose(c, 1.5, rel_tol=1e-12)
    assert abs(g[0]) < 1e-12 and math.isclose(g[1], 1.0, rel_tol=1e-9)


def test_grid_field_interpolates_linear_exactly():
    grid = Grid2D((0.0, 0.0), 0.1, 11, 11)
    xs, ys = grid.nodes()
    vals = 1.0 + 0.3 * xs[:, None] + 0.2 * ys[None, :]
    f = GridField(grid, vals)
    c, g = f.value_and_grad((0.44, 0.61))
    assert math.isclose(c, 1.0 + 0.3 * 0.44 + 0.2 * 0.61, rel_tol=1e-9)
    assert np.allclose(g, (0.3, 0.2), atol=1e-7)


def test_grid_field_covering_its_box_lets_rays_exit(unit_box):
    # the grid spans the box exactly: the RK4 stages of each exit step leave
    # the grid and evaluate in the collar
    grid = Grid2D((0.0, 0.0), 0.1, 11, 11)
    f = GridField(grid, np.ones((11, 11)))
    rec = scattering_relation(f, unit_box, entry_at(unit_box, 0.5, 0.0),
                              t_max=10.0, dt=1e-2)
    assert rec.status is RayStatus.EXITED
    assert np.allclose(rec.exit.x, (0.5, 1.0), atol=1e-12)
    assert rec.ell == pytest.approx(1.0, rel=1e-12)

    xs, ys = grid.nodes()
    linear = GridField(grid, 1.0 + 0.3 * xs[:, None] + 0.2 * ys[None, :])
    entries = [entry_at(unit_box, 4.0 * (i + 0.5) / 20, a)
               for i in range(20) for a in fan_angles(10)]
    records = scattering_relations(linear, unit_box, entries, t_max=10.0, dt=1e-2)
    assert all(r.status is RayStatus.EXITED for r in records)


def test_box_edges_points_and_nearest_edge(unit_box):
    box = BoxDomain((0.0, -1.0), (2.0, 3.0))
    assert [box.edge_point(e, 0.5) for e in EDGES] == [
        (0.0, 0.5), (2.0, 0.5), (0.5, -1.0), (0.5, 3.0)]
    for e in EDGES:
        assert box.nearest_edge(box.edge_point(e, 0.7)) == e
    # ties keep the order of EDGES: left, right, bottom, top
    assert unit_box.nearest_edge((0.0, 0.0)) == "left"
    assert unit_box.nearest_edge((1.0, 1.0)) == "right"
    assert unit_box.nearest_edge((0.5, 0.5)) == "left"


def test_grid_requires_minimum_nodes():
    with pytest.raises(ModelError):
        Grid2D((0.0, 0.0), 0.1, 4, 11)


def test_wave_speeds_homogeneous():
    one = ConstantField(1.0, dim=2)
    mat = ElasticMaterial(lam=one, mu=one, rho=one)
    cp, cs = wave_speeds(mat, (0.5, 0.5))
    assert math.isclose(cp, math.sqrt(3.0), rel_tol=1e-15)
    assert math.isclose(cs, 1.0, rel_tol=1e-15)


def test_derived_speed_fields(unit_material):
    cp_f = unit_material.cp_field()
    cs_f = unit_material.cs_field()
    assert math.isclose(cp_f.value((0.2, 0.2)), math.sqrt(3.0), rel_tol=1e-12)
    assert math.isclose(cs_f.value((0.2, 0.2)), 1.0, rel_tol=1e-12)


def test_disk_domain_signed_and_normal(unit_disk):
    assert unit_disk.signed((0.0, 0.0)) == pytest.approx(-1.0)
    assert unit_disk.signed((2.0, 0.0)) == pytest.approx(1.0)
    n = unit_disk.normal((0.0, 1.0))
    assert np.allclose(n, (0.0, 1.0))


def test_disk_boundary_point_param_roundtrip(unit_disk):
    for s in (0.0, 1.0, 2.5, 5.9):
        x = unit_disk.boundary_point(s)
        assert unit_disk.boundary_param(x) == pytest.approx(s, abs=1e-9)


def test_box_boundary_walk_roundtrip(unit_box):
    for s in (0.2, 1.3, 2.7, 3.9):
        x = unit_box.boundary_point(s)
        assert unit_box.boundary_param(x) == pytest.approx(s, abs=1e-9)


def test_box_normal_off_boundary_raises(unit_box):
    with pytest.raises(PreconditionError):
        unit_box.normal((0.5, 0.5))


def test_load_model_radial(model_file):
    from tests.conftest import LINEAR_RADIAL_MODEL
    m = load_model(model_file(LINEAR_RADIAL_MODEL))
    assert isinstance(m.domain, DiskDomain)
    assert m.lens_speed().value((0.5, 0.0)) == pytest.approx(1.5, rel=1e-12)


def test_load_model_material(model_file):
    from tests.conftest import UNIT_BOX_MODEL
    m = load_model(model_file(UNIT_BOX_MODEL))
    assert isinstance(m.domain, BoxDomain)
    cp, cs = m.material.wave_speeds((0.5, 0.5))
    assert cp == pytest.approx(math.sqrt(3.0))


def test_load_model_rejects_unknown_format():
    with pytest.raises(ModelError, match="format"):
        load_model({"format": 99, "domain": {"shape": "disk", "radius": 1.0}})


def test_load_model_malformed_json_raises():
    with pytest.raises(ModelError, match="malformed"):
        load_model("{not json")


@pytest.mark.parametrize("doc, key", [
    ({"format": 1, "domain": {"shape": "disk"}}, "radius"),
    ({"format": 1, "domain": {"shape": "disk", "radius": 1.0},
      "speed": {"kind": "radial"}}, "profile"),
])
def test_load_model_missing_key_names_it(doc, key):
    with pytest.raises(ModelError, match=key):
        load_model(doc)


def test_field_from_spec_bare_number_is_constant():
    f = field_from_spec(3.0, dim=2)
    assert f.value((0.1, 0.1)) == 3.0


# a + b . x with a >= 1 > |b_0| + |b_1| is positive on the cube [-1, 1]^2
_LINEAR = st.tuples(st.floats(1.0, 3.0), st.floats(-0.4, 0.4), st.floats(-0.4, 0.4))


@given(lam=_LINEAR, mu=_LINEAR, rho=_LINEAR, mode=st.sampled_from("ps"),
       x=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)))
def test_derived_speed_gradient_matches_central_difference(lam, mu, rho, mode, x):
    material = ElasticMaterial(*(LinearField(a, (b0, b1)) for a, b0, b1 in (lam, mu, rho)))
    field = DerivedSpeed(material, mode)
    _, g = field.value_and_grad(x)
    h = 1e-6
    fd = [(field.value(np.add(x, e)) - field.value(np.subtract(x, e))) / (2 * h)
          for e in h * np.eye(2)]
    assert np.allclose(g, fd, rtol=0, atol=1e-8)
