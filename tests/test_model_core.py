import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastic_lens.elastic_sim import receiver_nodes
from elastic_lens.errors import (ConfigurationError, DomainError, ModelError,
                                 PreconditionError)
from elastic_lens.model_core import (EDGES, BoxDomain,
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
    f = LinearField(1.0, (0.1, -0.2), bounds=BoxDomain.cube(2.0, 2))
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
    with pytest.raises(ModelError, match=r"corner \(-2\.5, -2\.5\)") as err:
        LinearField(1.0, (0.2, 0.3), bounds=BoxDomain.cube(2.5, 2))
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


def test_normals_of_point_arrays(unit_box, unit_disk):
    x = np.array([[0.6, 0.8], [-1.0, 0.0]])
    assert np.array_equal(unit_disk.normal(x), x)
    # corners go to the lower axis and, on it, to the lo face
    x = np.array([[0.5, 0.0], [1.0, 0.3], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(unit_box.normal(x),
                          [[0, -1], [1, 0], [-1, 0], [1, 0], [-1, 0]])
    assert np.array_equal(unit_box.normal(x[1]), [1, 0])
    with pytest.raises(PreconditionError, match=r"point \(0\.5, 0\.5\) not on"):
        unit_box.normal([[0.0, 0.5], [0.5, 0.5]])


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


# JSON values, and model documents built from them that reach every field
# and domain constructor
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10)
_NUMBERS = st.lists(st.floats(-2.0, 2.0) | st.integers(-2, 2), max_size=4)
_VALUE = _JSON | _NUMBERS | st.lists(_NUMBERS, max_size=4)
_FIELD = _JSON | st.fixed_dictionaries(
    {"kind": st.sampled_from(["constant", "linear", "radial", "depth", "grid", "x"])},
    optional={k: _VALUE for k in ("c", "a", "b", "profile", "origin", "h", "values")})
_DOMAIN = _JSON | st.fixed_dictionaries(
    {"shape": st.sampled_from(["disk", "ball", "box", "x"])},
    optional={k: _VALUE for k in ("radius", "lo", "hi")})
# (a string is read as a file name or as JSON text, not as a document)
_MODEL_DOC = _JSON.filter(lambda d: not isinstance(d, str)) | st.fixed_dictionaries(
    {}, optional={"format": st.just(1) | _JSON, "domain": _DOMAIN, "speed": _FIELD,
                  "material": _JSON | st.fixed_dictionaries(
                      {}, optional={k: _FIELD for k in ("lambda", "mu", "rho")})})


@settings(max_examples=200)
@given(doc=_MODEL_DOC)
def test_fuzzed_model_documents_load_or_raise_model_error(doc):
    try:
        load_model(doc)
    except ModelError:
        pass


def test_field_from_spec_bare_number_is_constant():
    f = field_from_spec(3.0, dim=2)
    assert f.value((0.1, 0.1)) == 3.0


def test_model_fields_live_on_read_only_copies_of_the_domain_box():
    lo = np.zeros(2)
    box = BoxDomain(lo, (1.0, 2.0))
    with pytest.raises(ValueError):
        box.lo[0] = -1.0
    lo[0] = -1.0   # the caller's array stays writable and unshared
    assert box.lo.tolist() == [0.0, 0.0]
    model = load_model({"domain": {"shape": "disk", "radius": 2.0},
                        "material": {"lambda": 1.0, "mu": 1.0, "rho": 1.0}})
    for f in (model.material.lam, model.material.mu, model.material.rho):
        assert (f.bounds.lo.tolist(), f.bounds.hi.tolist()) == ([-2.0, -2.0], [2.0, 2.0])
        with pytest.raises(ValueError):
            f.bounds.hi[1] = 5.0


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
