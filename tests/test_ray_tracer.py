import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastic_lens.cli import read_lens_csv, write_lens_csv
from elastic_lens.errors import PreconditionError
from elastic_lens.model_core import ConstantField, DiskDomain, RadialField, load_model
from elastic_lens.ray_tracer import (BoundaryDirection, RayStatus,
                                     entry_at, exit_angle, fan_angles, hamiltonian,
                                     integrate_bicharacteristic, lens_table,
                                     scattering_relation, unit_phase)
from tests.conftest import LINEAR_RADIAL_MODEL


def chord_exit(entry_x, v, R=1.0):
    """Exit point of the straight chord from entry_x along v on the circle."""
    x = np.asarray(entry_x, float)
    v = np.asarray(v, float)
    # solve |x + t v| = R for the positive root
    b = float(x @ v)
    c = float(x @ x) - R * R
    t = -b + math.sqrt(b * b - c)
    return x + t * v, t


def test_constant_disk_rays_are_chords(unit_disk):
    speed = ConstantField(1.3, dim=2)
    for s in np.linspace(0.0, 6.0, 8):
        for a in fan_angles(6):
            bd = entry_at(unit_disk, s, a)
            rec = scattering_relation(speed, unit_disk, bd, t_max=5.0, dt=1e-3)
            assert rec.status is RayStatus.EXITED
            x_exit, chord = chord_exit(bd.x, bd.v)
            assert np.allclose(rec.exit.x, x_exit, atol=1e-9)
            assert np.allclose(rec.exit.v, bd.v, atol=1e-9)
            assert rec.ell == pytest.approx(chord / 1.3, abs=1e-9)


def test_hamiltonian_conserved_along_flow(linear_radial_speed):
    x0 = np.array([[0.9, 0.0]])
    xi0 = unit_phase(linear_radial_speed, x0, [[-0.8, 0.6]])
    x, xi = integrate_bicharacteristic(linear_radial_speed, x0, xi0,
                                       t_max=1.0, dt=1e-3)
    hs = hamiltonian(linear_radial_speed, x, xi)
    drift = np.max(np.abs(hs - 0.5) / 0.5)
    assert drift <= 1e-10


def test_tangent_entry_refused(unit_disk):
    speed = ConstantField(1.0, dim=2)
    x = (1.0, 0.0)
    v = (math.sin(math.radians(1.0)), math.cos(math.radians(1.0)))
    rec = scattering_relation(speed, unit_disk, BoundaryDirection(x, v),
                              t_max=5.0, dt=1e-3)
    assert rec.status is RayStatus.TANGENT_ENTRY
    assert math.isnan(rec.ell)


def test_entry_at_points_inward(unit_disk):
    bd = entry_at(unit_disk, 1.7, 0.4)
    nu = unit_disk.normal(bd.x)
    assert float(np.dot(bd.v, nu)) < 0.0


def test_integrator_requires_unit_hamiltonian(linear_radial_speed):
    with pytest.raises(PreconditionError, match="g-unit"):
        integrate_bicharacteristic(linear_radial_speed, [[0.5, 0.0]],
                                   [[1.0, 0.0]], t_max=1.0, dt=1e-3)


def test_lens_table_row_count_and_order(unit_disk):
    speed = ConstantField(1.0, dim=2)
    rows = lens_table(speed, unit_disk, n_points=4, angles=3,
                      t_max=5.0, dt=1e-2)
    assert len(rows) == 12
    ss = [r.entry_s for r in rows]
    assert ss == sorted(ss)


def test_lens_csv_roundtrip(tmp_path, unit_disk):
    speed = ConstantField(1.0, dim=2)
    rows = lens_table(speed, unit_disk, n_points=3, angles=2,
                      t_max=5.0, dt=1e-2)
    path = tmp_path / "table.csv"
    write_lens_csv(path, unit_disk, rows)
    back = read_lens_csv(path)
    assert len(back) == len(rows)
    assert back[0]["status"] == "Exited"
    assert back[0]["ell"] == pytest.approx(rows[0].record.ell, rel=1e-10)


def test_radial_ray_in_linear_profile_turns_and_exits(linear_radial_speed,
                                                      unit_disk):
    # steep entry: the ray dives, turns at r_t where p = r/c(r), and returns
    bd = entry_at(unit_disk, 0.0, 1.2)
    rec = scattering_relation(linear_radial_speed, unit_disk, bd,
                              t_max=20.0, dt=5e-4)
    assert rec.status is RayStatus.EXITED
    # exit lies on the boundary and the exit direction points outward
    assert np.linalg.norm(rec.exit.x) == pytest.approx(1.0, abs=1e-9)
    nu = unit_disk.normal(rec.exit.x)
    assert float(np.dot(rec.exit.v, nu)) > 0.0


def test_radial_disk_exit_angles_equal_entry_angles():
    # in a radial speed r x v is conserved, so every ray leaves at the angle
    # from the normal at which it entered
    model = load_model(LINEAR_RADIAL_MODEL)
    rows = lens_table(model.speed, model.domain, n_points=7, angles=9,
                      t_max=20.0, dt=1e-3)
    exited = [r for r in rows if r.record.status is RayStatus.EXITED]
    assert len(exited) == 63
    for r in exited:
        assert abs(exit_angle(model.domain, r.record) - r.entry_angle) <= 1e-12


@given(a=st.floats(1.0, 2.0), frac=st.floats(0.1, 0.8))
def test_lens_table_rows_match_single_rays(a, frac):
    # c = a - b r with 0 < b < a / 1.2 stays positive on the field's support
    # and is Herglotz-admissible: d/dr (r / c) = a / c^2 > 0
    b = frac * a / 1.2
    speed = RadialField(func=lambda r: a - b * r, dfunc=lambda r: -b, r_max=1.2)
    disk = DiskDomain(1.0)
    rows = lens_table(speed, disk, n_points=3, angles=4, t_max=20.0, dt=2e-2)
    for row in rows:
        single = scattering_relation(speed, disk,
                                     entry_at(disk, row.entry_s, row.entry_angle),
                                     t_max=20.0, dt=2e-2)
        assert single.status is row.record.status is RayStatus.EXITED
        assert np.allclose(single.exit.x, row.record.exit.x, rtol=0, atol=1e-12)
        assert np.allclose(single.exit.v, row.record.exit.v, rtol=0, atol=1e-12)
        assert abs(single.ell - row.record.ell) <= 1e-12
