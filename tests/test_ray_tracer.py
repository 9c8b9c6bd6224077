import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from elastic_lens import ray_tracer
from elastic_lens.cli import read_lens_csv, write_lens_csv
from elastic_lens.errors import DomainError, ModelError, PreconditionError
from elastic_lens.inversion import forward_travel_times
from elastic_lens.model_core import (BoxDomain, ConstantField, DiskDomain, LinearField,
                                     RadialField, load_model)
from elastic_lens.ray_tracer import (THETA_MIN, BoundaryDirection, RayStatus,
                                     entry_at, exit_angle, fan_angles, hamiltonian,
                                     integrate_bicharacteristic, lens_table,
                                     scattering_relation, scattering_relations)
from tests.conftest import LINEAR_RADIAL_MODEL, triplicating_field


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
    entries = [entry_at(unit_disk, s, a) for s in np.linspace(0.0, 6.0, 8) for a in fan_angles(6)]
    for bd, rec in zip(entries, scattering_relations(speed, unit_disk, entries,
                                                     t_max=5.0, dt=1e-3)):
        assert rec.status is RayStatus.EXITED
        x_exit, chord = chord_exit(bd.x, bd.v)
        assert np.allclose(rec.exit.x, x_exit, atol=1e-9)
        assert np.allclose(rec.exit.v, bd.v, atol=1e-9)
        assert rec.ell == pytest.approx(chord / 1.3, abs=1e-9)


def _count_rhs_calls(monkeypatch):
    """A list that gains an entry at each _rhs call from here on."""
    calls, rhs = [], ray_tracer._rhs

    def counted(speed, y, out):
        calls.append(len(y))
        return rhs(speed, y, out)

    monkeypatch.setattr(ray_tracer, "_rhs", counted)
    return calls


def test_exit_costs_no_flow_evaluation_beyond_its_steps(unit_disk, monkeypatch):
    # one flow evaluation at the entry and six a pass; the exit is located on
    # the exit step's dense output, built from the flows the step evaluated
    calls, counters, dt = _count_rhs_calls(monkeypatch), {}, 0.05
    [rec] = scattering_relations(ConstantField(1.0, dim=2), unit_disk,
                                 [entry_at(unit_disk, 0.0, 0.3)], t_max=5.0, dt=dt,
                                 counters=counters)
    assert rec.ell == pytest.approx(2.0 * math.cos(0.3), abs=1e-12)
    steps = math.floor(rec.ell / dt) + 1                     # 1.91 / 0.05: 39
    assert counters["passes"] == counters["steps"] == steps
    assert counters["rejected_steps"] == 0
    assert len(calls) == 1 + 6 * steps


def test_counters_report_the_steps_and_flow_evaluations_taken(unit_disk, monkeypatch):
    # the counts scattering_relations reports are the _rhs calls made, on a
    # ray that exits after 15 steps, one trapped at t_max after 20 and a
    # tangent entry.  On a constant field the error estimate is 0, so each step
    # is the largest, dt = 0.05 = COLLAR / (2 c), and none is rejected
    calls = _count_rhs_calls(monkeypatch)
    entries = [entry_at(unit_disk, 0.0, a) for a in (1.2, 0.0, 1.55)]
    counters = {}
    records = scattering_relations(ConstantField(1.0, dim=2), unit_disk, entries,
                                   t_max=1.0, dt=0.05, counters=counters)
    assert [r.status for r in records] == [RayStatus.EXITED, RayStatus.TRAPPED,
                                           RayStatus.TANGENT_ENTRY]
    assert len(calls) == 1 + 6 * 20
    assert counters.pop("hamiltonian_drift") <= 1e-15
    assert counters == {"passes": 20, "steps": 35, "rejected_steps": 0,
                        "ray_status": {"Exited": 1, "Trapped": 1, "TangentEntry": 1}}


def test_steps_across_a_gradient_jump_are_retried_to_the_tolerance(unit_disk, monkeypatch):
    # the fold fan's rays that dive below r = 0.75 cross the jump in grad c:
    # there a ray's step is rejected and retried shorter, each pass costs six
    # flow evaluations however many of its rays retry, and the rays meet the
    # Herglotz integrals to 1e-7 (3.5e-8 at most; c = 1 at r = 1, so p is the
    # sine of the entry angle)
    angles, calls, counters = (0.2, 0.6, 1.0), _count_rhs_calls(monkeypatch), {}
    bound = 1e-7
    records = scattering_relations(triplicating_field(), unit_disk,
                                   [entry_at(unit_disk, 0.0, a) for a in angles],
                                   t_max=ray_tracer.T_MAX, dt=ray_tracer.DT,
                                   counters=counters)
    assert all(r.status is RayStatus.EXITED for r in records)
    assert counters["rejected_steps"] > 0
    assert len(calls) == 1 + 6 * counters["passes"]
    for a, rec in zip(angles, records):
        delta, time = _herglotz_delta_time(1.075, 0.75, -2.5, -0.3, math.sin(a))
        assert abs(abs(math.atan2(rec.exit.x[1], rec.exit.x[0])) - delta) <= bound
        assert abs(rec.ell - time) <= bound


# c = 1 up to r = 1.02, then -1: positive on the disk, not in all of its collar
_NEGATIVE_PAST_1_02 = RadialField(func=lambda r: np.where(r < 1.02, 1.0, -1.0),
                                  dfunc=lambda r: 0.0, r_max=1.2)


@pytest.mark.parametrize("speed, error, message", [
    (ConstantField(1.0, bounds=BoxDomain.cube(0.92)), DomainError,
     "point [-1.025, 0.0] outside field bounds (-0.92, -0.92)..(0.92, 0.92)"),
    (_NEGATIVE_PAST_1_02, ModelError, "non-positive speed -1.0 at [-1.025, 0.0]")],
    ids=["DomainError", "ModelError"])
def test_first_bad_stage_point_raises_its_error(unit_disk, speed, error, message):
    # the chord along the x axis ends its 64th step of 1/32 at x = -1.0, still
    # on the disk; the next step's third stage point, 4/5 of the step on at
    # x = -1.025, is the first bad one (the second is at -1.009375), and its
    # end, x = -1.03125, would exit: the stage's error comes first
    with pytest.raises(error) as info:
        scattering_relation(speed, unit_disk, entry_at(unit_disk, 0.0, 0.0),
                            t_max=5.0, dt=2.0 ** -5)
    assert type(info.value) is error and str(info.value) == message


def test_hamiltonian_conserved_along_flow(linear_radial_speed):
    x0 = np.array([[0.9, 0.0]])
    xi0 = np.array([[-0.8, 0.6]]) / linear_radial_speed.eval(x0)[0][:, None]  # H = 1/2
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


@given(kind=st.sampled_from(["disk", "box"]), bx=st.floats(-0.3, 0.3),
       by=st.floats(-0.3, 0.3))
def test_curved_rays_retrace_their_path_backwards(kind, bx, by):
    # time reversal: the ray from (x, v) exits at (y, w) after ell, so the
    # ray from (y, -w) exits at (x, -v) after ell.  c = 1 + b . x has no
    # symmetry, so the rays curve every way; the bounds are those of the
    # shared RK4 steps of 1e-2 (at most 1.3e-10 in x and ell, 3.9e-11 in v,
    # on 144-ray fans at |b_i| = 0.3), where per-ray Dormand-Prince steps of at
    # most 1e-2 err 8.5e-14, 4.0e-14 and 1.2e-13
    domain = DiskDomain(1.0) if kind == "disk" else BoxDomain((0.0, 0.0), (1.0, 2.0))
    # positive on the box: 1 - 0.3 - 0.6 > 0; the default bounds hold the disk
    speed = LinearField(1.0, (bx, by), bounds=None if kind == "disk" else domain)
    rows = lens_table(speed, domain, n_points=6, angles=6, t_max=20.0, dt=1e-2)
    assert all(r.record.status is RayStatus.EXITED for r in rows)
    # an exit within THETA_MIN of tangent is no valid entry; keep a margin
    rows = [r for r in rows
            if abs(exit_angle(domain, r.record)) < math.pi / 2 - 2 * THETA_MIN]
    assert len(rows) >= 30
    back = scattering_relations(speed, domain, [
        BoundaryDirection(r.record.exit.x, tuple(-np.asarray(r.record.exit.v)))
        for r in rows], t_max=20.0, dt=1e-2)
    for row, rec in zip(rows, back):
        assert rec.status is RayStatus.EXITED
        assert np.abs(np.subtract(rec.exit.x, row.record.entry.x)).max() <= 1e-9
        assert np.abs(np.add(rec.exit.v, row.record.entry.v)).max() <= 3e-10
        assert abs(rec.ell - row.record.ell) <= 1e-9


@given(kind=st.sampled_from(["disk", "box"]), a=st.floats(1.5, 2.0),
       size=st.floats(0.05, 0.6), turn=st.floats(0.0, 2.0 * math.pi),
       dt=st.sampled_from([1e-3, ray_tracer.DT]))
def test_curved_rays_take_the_linear_gradient_travel_time(kind, a, size, turn, dt):
    # in c = a + b . x the rays are circular arcs, and the travel time between
    # x1 and x2 is T = arccosh(1 + |b|^2 |x1 - x2|^2 / (2 c1 c2)) / |b|, written
    # here as 2 asinh(|b| |x1 - x2| / (2 sqrt(c1 c2))) / |b|.  The rays meet it
    # to 7e-14 at dt = 1e-3 and 8e-11 at DT = 5e-2 (48-ray fans, |b| <= 0.6),
    # the largest step of trace, lens and the radial pipeline
    b = size * np.array([math.cos(turn), math.sin(turn)])
    # a - 1.3 (|b_0| + |b_1|) > 0.3: positive on the bounds' collar
    speed = LinearField(a, b, bounds=BoxDomain.cube(1.2))
    domain = DiskDomain(1.0) if kind == "disk" else BoxDomain((-0.9, -0.7), (0.8, 0.9))
    rows = lens_table(speed, domain, n_points=6, angles=8, t_max=ray_tracer.T_MAX, dt=dt)
    assert all(r.record.status is RayStatus.EXITED for r in rows)
    x1 = np.array([r.record.entry.x for r in rows])
    x2 = np.array([r.record.exit.x for r in rows])
    c12 = np.sqrt((a + x1 @ b) * (a + x2 @ b))
    T = 2.0 * np.arcsinh(size * np.linalg.norm(x2 - x1, axis=1) / (2.0 * c12)) / size
    assert np.abs([r.record.ell for r in rows] - T).max() <= 1e-8


def _herglotz_delta_time(c_k, r_k, g_in, g_out, p, R=1.0):
    """Delta(p) and T(p) of the ray with parameter p in c = c_k + g (r - r_k), g
    being g_in below r_k and g_out above: the Herglotz integrals of 2 p / r and
    2 eta^2 / r against dr / sqrt(eta^2 - p^2), eta = r / c, from the turning
    radius r_p to R.  r = r_p + s^2 removes the turning point's inverse square
    root, and Gauss-Legendre runs on each side of the kink."""
    g = g_in if r_k > p * c_k else g_out                  # the piece holding r_p
    r_p = p * (c_k - g * r_k) / (1.0 - p * g)             # r_p = p c(r_p)
    edges = [0.0, *([math.sqrt(r_k - r_p)] if r_p < r_k else []), math.sqrt(R - r_p)]
    x, w = np.polynomial.legendre.leggauss(48)
    delta = time = 0.0
    for s0, s1 in zip(edges, edges[1:]):
        s, ds = 0.5 * (s1 - s0) * x + 0.5 * (s1 + s0), 0.5 * (s1 - s0) * w
        r = r_p + s * s
        c = c_k + np.where(r < r_k, g_in, g_out) * (r - r_k)
        # r - p c, exactly (1 - p g) s^2 on the turning piece
        q = (1.0 - p * g) * s * s if s0 == 0.0 else r - p * c
        dr = 2.0 * s * c / np.sqrt(q * (r + p * c)) * ds      # dr / sqrt(eta^2 - p^2)
        delta += 2.0 * np.sum(p / r * dr)
        time += 2.0 * np.sum(r / (c * c) * dr)
    return delta, time


def _kinked_fan_errors(c_k, r_k, g_in, g_out, angles):
    """The largest errors in Delta and T, against _herglotz_delta_time, of the
    fan at `angles` traced at DT through c = c_k + g (r - r_k), g being g_in
    below r_k and g_out above."""
    speed = RadialField(func=lambda r: c_k + np.where(r < r_k, g_in, g_out) * (r - r_k),
                        dfunc=lambda r: np.where(r < r_k, g_in, g_out), r_max=1.2)
    delta, time = forward_travel_times(speed, 1.0, angles)
    c_1 = c_k + g_out * (1.0 - r_k)
    ref = np.array([_herglotz_delta_time(c_k, r_k, g_in, g_out, math.sin(a) / c_1)
                    for a in angles[::-1]]).T                 # by increasing penetration
    return max(np.abs(delta - ref[0]).max(), np.abs(time - ref[1]).max())


# c_k, r_k, g_in, g_out: the ray at 0.4857 rad dips 7e-5 under r_k, between two stage
# points of a step of DT whose error estimate is 9e-11.  Delta erred 4.3e-3 so until
# a step that passes a turn of c was made to end at it
_DIP = (1.0616187256356218, 0.537109375, 0.0, -0.2997874053001179)


@given(c_k=st.floats(1.0, 1.5), r_k=st.floats(0.5, 0.85), g_in=st.floats(-2.5, 0.0),
       g_out=st.floats(-0.5, 0.0))
@example(*_DIP)
def test_rays_across_a_gradient_jump_meet_the_herglotz_integrals(c_k, r_k, g_in, g_out):
    # c = c_k + g (r - r_k) with g <= 0 on each side of the kink r_k: r / c grows
    # (its derivative is the intercept over c^2, and c_k - g r_k > 0), and a steep
    # inner gradient folds the travel-time curve.  At DT the bound is 1e-3: 300
    # draws of these profiles erred at most 3.2e-7 in Delta and T, and a ray that
    # dips under r_k by 1e-9 to 1e-7, between the points a step evaluates, up to 3.3e-5
    assert _kinked_fan_errors(c_k, r_k, g_in, g_out, np.linspace(0.1, 1.45, 8)) <= 1e-3


@given(c_k=st.floats(1.0, 1.5), r_k=st.floats(0.5, 0.85), g_in=st.floats(-2.5, 0.0),
       g_out=st.floats(-0.5, 0.0))
@example(*_DIP)
def test_rays_across_a_gradient_jump_meet_the_herglotz_integrals_to_1e_5(c_k, r_k, g_in,
                                                                          g_out):
    # the profiles and fan of the property above at the bound of the per-ray
    # steps, where the shared RK4 step of 1e-2 erred up to 5.8e-4 (195 of 300
    # draws above 1e-5)
    assert _kinked_fan_errors(c_k, r_k, g_in, g_out, np.linspace(0.1, 1.45, 8)) <= 1e-5


def test_rays_across_a_small_gradient_jump_meet_the_herglotz_integrals():
    # c = 1.192 + g (r - 0.715), g = -0.007 inside and -0.010 outside: a kink
    # small enough that an error estimate from the flows at a step's last two
    # stages, both past it, misses it (Delta erred 8.6e-6 so).  The 48-ray fan
    # errs 1.7e-7 in Delta and 2.7e-7 in T
    assert _kinked_fan_errors(1.192, 0.715, -0.007, -0.010,
                              np.linspace(0.06, 1.51, 48)) <= 3e-6


@pytest.fixture(scope="module")
def spline_fan():
    """A natural cubic spline profile, whose third derivative jumps at its knots
    r = 0.5 and 1 (the radial workload's model at one seed), the angles of a
    48-ray fan and its (Delta, T) traced with steps of at most 5e-3 at DP5_TOL =
    1e-13."""
    speed = RadialField(profile=[[0.0, 2.0], [0.5, 1.4852270827288125],
                                 [1.0, 1.0046167696686323], [1.2, 0.8]])
    angles = np.linspace(0.06, 1.51, 48)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ray_tracer, "DP5_TOL", 1e-13)
        return speed, angles, forward_travel_times(speed, 1.0, angles, dt=5e-3)


def test_spline_profile_rays_meet_a_fine_trace(spline_fan):
    # the steps end on the knots, so the fan at DT meets the fine trace to 1.3e-9
    # in Delta and 2.7e-9 in T, and the Hamiltonian drifts 4.9e-9 by the exits;
    # with steps across the knots it erred 2.9e-8 and 3.1e-8 and drifted 1.3e-7,
    # at DP5_TOL = 1e-9
    speed, angles, (ref_delta, ref_time) = spline_fan
    counters = {}
    delta, time = forward_travel_times(speed, 1.0, angles, counters=counters)
    assert counters["hamiltonian_drift"] <= 1e-8
    assert np.abs(delta - ref_delta).max() <= 5e-9
    assert np.abs(time - ref_time).max() <= 5e-9


def test_spline_profile_fan_error_falls_with_the_tolerance(spline_fan, monkeypatch):
    # a step that ends on each knot keeps its fifth order and its error estimate
    # bounds its error, so the fan's errors follow DP5_TOL: in Delta 1.3e-9,
    # 4.9e-10 and 1.1e-10 at 1e-8, 4e-9 and 1e-9, in T 2.7e-9, 8.3e-10 and
    # 1.8e-10.  With steps across the knots Delta erred 6.4e-8, 1.1e-7 and 2.9e-8
    speed, angles, ref = spline_fan

    def errors(tol):
        monkeypatch.setattr(ray_tracer, "DP5_TOL", tol)
        return np.array([np.abs(a - b).max()
                         for a, b in zip(forward_travel_times(speed, 1.0, angles), ref)])
    coarse, middle, fine = (errors(tol) for tol in (1e-8, 4e-9, 1e-9))
    assert np.all(coarse > middle) and np.all(middle > fine)
    assert np.all(4.0 * fine <= coarse)
